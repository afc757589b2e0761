"""Expectation values, two-time correlations and the output spectrum.

Equal-time expectations (``expect_*``, defined in :mod:`.dynamics`,
whose steady-state gate reads them) reduce to weighted sums of a handful
of coefficients: pairing an operator with the state applies the operator
kernel and then the trace functional, and only contentless elements with
matched photon powers survive the trace. Explicitly, with P_m the photon
trace weights,

    <S^z>          = sum_m c_(0,0,1,m,m) P_m          (per atom: divide by N)
    <s_1^+ s_2^->  = sum_m c_(1,1,0,m,m) P_m / (4 N (N-1))
    <a^+ a>        = sum_m c_(0,0,0,m,m) (P_{m+1} + m P_m)

Two-time correlations follow the regression recipe: g1 seeds the
adjacent-charge sector with a . rho_ss (left multiplication by the mode
operator lowers the U(1) charge by one under this index convention),
evolves it there, and pairs with a^+ at each delay; g2 seeds the charge-0
sector with a . rho_ss . a^+ and reads out the photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (SolverError, SymmetricState, expect_photon_number,
                       expect_sigma_z, expect_spin_spin, propagate)
from .liouvillian import (chain_matrix, liouvillian_for, number_functional,
                          trace_functional)
from .model import ModelParams
from .symbasis import SectorBasis, enumerate_sector

#: delays per chunk of power_spectrum's phase tables; at 4001 frequencies
#: a chunk's two tables (64 + 63 rows) hold 0.5 MB
SPECTRUM_BLOCK = 256

#: largest log-residual rms that fit_linewidth accepts
FIT_RESIDUAL_TOL = 1e-2

#: largest |g1| at the end of the trace that power_spectrum integrates
#: without a tail fit
DECAY_FLOOR = 1e-3


class PoorFitError(SolverError):
    """Exponential tail fit rejected by the residual diagnostic."""


@dataclass
class CorrelationTrace:
    """Samples of a normalized correlation function on a time grid.

    ``tail_delay`` and ``tail_eigenvalue`` say how the trace was obtained:
    past ``tail_delay`` its values are the closed-form one-mode tail
    value(tail_delay) e^(tail_eigenvalue (t - tail_delay)) of
    :func:`blocklaser.dynamics.propagate`; both are None when every delay
    was propagated. ``matvecs`` is the walk's number of products with the
    generator (:attr:`blocklaser.dynamics.Propagation.matvecs`).
    """

    times: np.ndarray
    values: np.ndarray
    normalization: float   # the equal-time denominator that was divided out
    tail_delay: Optional[float] = None
    tail_eigenvalue: Optional[complex] = None
    matvecs: int = 0


@dataclass
class Spectrum:
    """Real, approximately unit-area power spectrum samples."""

    freqs: np.ndarray
    values: np.ndarray
    metadata: Dict = field(default_factory=dict)


@dataclass
class LinewidthFit:
    """Exponential-tail fit |g1| ~ amplitude * exp(-rate t / 2)."""

    rate: float
    amplitude: float
    rate_stderr: float
    log_residual_rms: float
    window: Tuple[float, float]


def _adag_trace_pairing(target: SectorBasis) -> np.ndarray:
    """Row vector v with Tr[a^+ rho'] = v . c' on the shifted sector."""
    N, M, dn = target.n_atoms, target.photon_cutoff, target.delta_n
    adag = chain_matrix(((1.0, ("adag_left",)),), N, M, dn, dn + 1)
    return (adag.T @ trace_functional(enumerate_sector(N, M, dn + 1))).real


def g1_trace(params: ModelParams, steady: SymmetricState,
             times: Sequence[float]) -> CorrelationTrace:
    """First-order coherence g1(t) = <a^+(t) a(0)> / <a^+ a>.

    The seed a . rho_ss lives one U(1) charge below the steady state; it is
    evolved with that sector's Liouvillian and paired with a^+ under the
    trace at every delay, up to the analytic tail of
    :func:`blocklaser.dynamics.propagate`, which the trace records.
    """
    nb = expect_photon_number(steady)
    if nb <= 1e-14:
        raise SolverError("zero photon number; g1 normalization undefined")
    sector = steady.sector
    N, M, dn = sector.n_atoms, sector.photon_cutoff, sector.delta_n
    seed = chain_matrix(((1.0, ("a_left",)),), N, M, dn, dn - 1)
    c0 = seed @ steady.coeffs
    pairing = _adag_trace_pairing(enumerate_sector(N, M, dn - 1))
    L1 = liouvillian_for(params, dn - 1)
    walk = propagate(L1, c0, times, observe=pairing)
    return CorrelationTrace(times=np.asarray(times, dtype=float),
                            values=walk.values / nb,
                            normalization=nb, tail_delay=walk.tail_delay,
                            tail_eigenvalue=walk.tail_eigenvalue,
                            matvecs=walk.matvecs)


def g2_trace(params: ModelParams, steady: SymmetricState,
             times: Sequence[float]) -> CorrelationTrace:
    """Intensity correlation g2(t) = <a^+(0) a^+(t) a(t) a(0)> / <a^+ a>^2.

    The seed a . rho_ss . a^+ keeps the U(1) charge, so the evolution stays
    in the steady state's own sector and the readout is the photon number,
    up to the analytic tail of :func:`blocklaser.dynamics.propagate`, which
    the trace records.
    """
    nb = expect_photon_number(steady)
    if nb <= 1e-14:
        raise SolverError("zero photon number; g2 normalization undefined")
    sector = steady.sector
    N, M, dn = sector.n_atoms, sector.photon_cutoff, sector.delta_n
    seed = chain_matrix(((1.0, ("a_left", "adag_right")),), N, M, dn, dn)
    c0 = seed @ steady.coeffs
    L0 = liouvillian_for(params, dn)
    walk = propagate(L0, c0, times, observe=number_functional(sector))
    return CorrelationTrace(times=np.asarray(times, dtype=float),
                            values=walk.values.real / nb ** 2,
                            normalization=nb ** 2, tail_delay=walk.tail_delay,
                            tail_eigenvalue=walk.tail_eigenvalue,
                            matvecs=walk.matvecs)


def effective_rabi(params: ModelParams, spin_spin: float) -> float:
    """Collective drive strength Omega_eff = N g sqrt(<s_1^+ s_2^->)."""
    if spin_spin < 0:
        raise ValueError("spin-spin coherence must be non-negative")
    return params.n_atoms * params.coupling * np.sqrt(spin_spin)


def correlation_times(dt_dense: float, t_dense: float,
                      t_max: Optional[float] = None,
                      n_tail: int = 0) -> np.ndarray:
    """Hybrid delay grid: dense linear segment plus geometric tail.

    The dense part resolves structure on the cavity timescale; the tail
    reaches out to delays set by the (much smaller) emission linewidth.
    """
    dense = np.arange(0.0, t_dense + 0.5 * dt_dense, dt_dense)
    if t_max is None or n_tail <= 0 or t_max <= dense[-1]:
        return dense
    tail = np.geomspace(dense[-1], t_max, n_tail + 1)[1:]
    return np.concatenate([dense, tail])


def fit_linewidth(trace: CorrelationTrace,
                  window: Tuple[float, float]) -> LinewidthFit:
    """Least-squares exponential fit of |g1| over a late-time window.

    Fits log|g1| = log(amplitude) - (rate/2) t and reports the rms of the
    log residuals; early windows that still contain fast transients are
    rejected through :data:`FIT_RESIDUAL_TOL`. The window start should sit well
    past the fast (cavity) decay time for the fit to be unbiased.
    """
    t_min, t_max = window
    mask = (trace.times >= t_min) & (trace.times <= t_max)
    if np.count_nonzero(mask) < 4:
        raise PoorFitError("fewer than 4 samples in the fit window")
    t = trace.times[mask]
    y = np.abs(trace.values[mask])
    if np.any(y <= 0):
        raise PoorFitError("|g1| touches zero inside the fit window")
    logy = np.log(y)
    (slope, intercept), cov = np.polyfit(t, logy, 1, cov=True)
    resid = logy - (slope * t + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if rms > FIT_RESIDUAL_TOL:
        raise PoorFitError(
            f"log-residual rms {rms:.3e} above {FIT_RESIDUAL_TOL:.1e}; "
            "tail is not a single exponential over this window")
    if slope >= 0:
        raise PoorFitError("tail is non-decaying over the fit window")
    return LinewidthFit(rate=-2.0 * slope,
                        amplitude=float(np.exp(intercept)),
                        rate_stderr=2.0 * float(np.sqrt(cov[0, 0])),
                        log_residual_rms=rms,
                        window=(float(t_min), float(t_max)))


def power_spectrum(trace: CorrelationTrace, freqs: np.ndarray,
                   tail_fit: Optional[LinewidthFit] = None) -> Spectrum:
    """Normalized emission spectrum S(w) = (1/2pi) int g1(t) e^{iwt} dt.

    Uses g1(-t) = conj(g1(t)), i.e. S(w) = (1/pi) Re int_0^inf g1 e^{iwt}.
    With a tail fit the fitted exponential is transformed analytically
    into its Lorentzian of half-width rate/2 and only the residual is
    integrated numerically; the narrow coherent peak and the broad
    structure then never share one quadrature grid. Without a fit the
    trace must itself have decayed below :data:`DECAY_FLOOR`.

    The trapezoid rule is a weighted sum over the delays t_k. ``freqs``
    must be an evenly spaced band w_j = w_0 + j dw (a ``np.linspace``),
    else :class:`ValueError`. Writing j = a B + b with B = ceil(sqrt(J))
    factors the phase, e^{i w_j t} = e^{i w_b t} e^{i (w_(aB) - w_0) t},
    so the sum is one product P diag(q r) Q^T of a B-row and an A-row
    table of exponentials (A = ceil(J / B)), accumulated
    :data:`SPECTRUM_BLOCK` delays at a time.
    """
    t = trace.times
    g = trace.values
    freqs = np.asarray(freqs, dtype=float)
    n_freqs = len(freqs)
    if not (n_freqs and np.all(np.isfinite(freqs))):
        raise ValueError("freqs must be a non-empty band of finite frequencies")
    rows = math.isqrt(n_freqs - 1) + 1                 # B = ceil(sqrt(J))
    heads = freqs[::rows] - freqs[0]                   # w_(aB) - w_0
    composed = (heads[:, None] + freqs[None, :rows]).ravel()[:n_freqs]
    if (np.abs(composed - freqs).max()
            > 8.0 * np.finfo(float).eps * np.abs(freqs).max()):
        raise ValueError("freqs must be evenly spaced (np.linspace)")

    meta = {"window_length": float(t[-1])}
    if tail_fit is not None:
        half = 0.5 * tail_fit.rate
        residual = g - tail_fit.amplitude * np.exp(-half * t)
        lorentz = (tail_fit.amplitude / np.pi) * half / (half ** 2 + freqs ** 2)
        meta.update(tail_rate=tail_fit.rate, tail_amplitude=tail_fit.amplitude)
    else:
        if np.abs(g[-1]) > DECAY_FLOOR:
            raise SolverError(
                f"|g1| = {np.abs(g[-1]):.3e} at the end of the trace; "
                "supply a tail fit or extend the grid")
        residual = g
        lorentz = 0.0
    # trapezoid weights q: Re int r e^{iwt} dt = Re sum_k e^{i w t_k} q_k r_k
    dt = np.diff(t)
    q = np.zeros(len(t))
    q[:-1] += 0.5 * dt
    q[1:] += 0.5 * dt
    weighted = q * residual
    total = np.zeros((len(heads), rows), dtype=complex)
    for lo in range(0, len(t), SPECTRUM_BLOCK):
        chunk = t[lo:lo + SPECTRUM_BLOCK]
        head = np.exp(1j * np.outer(heads, chunk))
        head *= weighted[lo:lo + SPECTRUM_BLOCK]
        total += head @ np.exp(1j * np.outer(chunk, freqs[:rows]))
    numeric = total.real.ravel()[:n_freqs]
    values = lorentz + numeric / np.pi
    return Spectrum(freqs=freqs, values=values, metadata=meta)
