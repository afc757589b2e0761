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
from fractions import Fraction
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

#: power_spectrum sums the leading uniform run of K delays by one chirp-z
#: transform when K >= _CHIRP_MIN_RUN and K J >= _CHIRP_MIN_TERMS, J the
#: band size. Table path against chirp-z, in us (medians of 31 in-process
#: timings, BLAS on 1 thread, 2-vCPU VM):
#:
#:   J \ K    128         256         1024        2501
#:   16       59 / 135    98 / 156    405 / 297   999 / 546
#:   64       101 / 137   183 / 159   773 / 303   1933 / 560
#:   256      198 / 172   370 / 179   1521 / 318  3753 / 569
#:   1001     373 / 301   720 / 314   2913 / 358  7123 / 591
#:   4001     734 / 885   1914 / 904  6276 / 556  8782 / 615
_CHIRP_MIN_RUN = 256
_CHIRP_MIN_TERMS = 2 ** 14

#: largest chirp index m whose m^2 (< 2^29) times a float32-exact head is
#: exact in float64; a longer run is cut there (the rest takes the phase
#: tables), and a longer band takes the tables whole
_CHIRP_MAX_INDEX = math.isqrt(2 ** 29)

#: a delay belongs to the uniform run if it lies within this many ulps of
#: the run's largest |t| of the line through the run's ends
_RUN_ULPS = 4.0

#: 2 pi to 40 digits, and as a float32-exact head plus a float64 tail
_TWO_PI = Fraction("6.283185307179586476925286766559005768394")
_TWO_PI_HEAD = float(np.float32(_TWO_PI))
_TWO_PI_TAIL = float(_TWO_PI - Fraction(_TWO_PI_HEAD))

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


def _reduced_phase(coef: Fraction, m: np.ndarray) -> np.ndarray:
    """coef * m mod 2 pi for integers |m| < 2^29, held as float64.

    ``coef`` is reduced mod 2 pi exactly, as a fraction, and split into a
    float32-exact head and a tail; head * m is then exact (24 + 29 bits)
    and is reduced against the two-part 2 pi of :data:`_TWO_PI_HEAD` and
    :data:`_TWO_PI_TAIL` (Cody & Waite), whose product with the quotient
    is exact in its head. What is left are the roundings of a few terms of
    size pi or less, where a direct fl(coef * m) would be off by an ulp of
    the whole phase.
    """
    c = coef - _TWO_PI * round(coef / _TWO_PI)
    head = float(np.float32(c))
    tail = float(c - Fraction(head))
    x = head * m
    n = np.rint(x / _TWO_PI_HEAD)
    return (x - n * _TWO_PI_HEAD) - n * _TWO_PI_TAIL + tail * m


def _chirp_run(t: np.ndarray, n_freqs: int) -> int:
    """Delays that power_spectrum sums by one chirp-z transform, 0 if none.

    The leading uniform run's candidate is the longest prefix whose steps
    match the first to 1e-6; it counts only if every one of its points
    lies within :data:`_RUN_ULPS` ulps of max(|t_0|, |t_(K-1)|) of the
    line through its ends (a jittered grid has none). Cut at
    :data:`_CHIRP_MAX_INDEX` + 1 delays, the run takes the chirp-z path if
    it holds at least :data:`_CHIRP_MIN_RUN` delays, times the band at
    least :data:`_CHIRP_MIN_TERMS` terms, and the band is no longer than
    the cut.
    """
    if len(t) < 2:
        return 0
    steps = np.diff(t)
    off = np.nonzero(np.abs(steps - steps[0]) > 1e-6 * abs(steps[0]))[0]
    run = min(len(t) if len(off) == 0 else int(off[0]) + 1,
              _CHIRP_MAX_INDEX + 1)
    if (run < _CHIRP_MIN_RUN or run * n_freqs < _CHIRP_MIN_TERMS
            or n_freqs > _CHIRP_MAX_INDEX + 1):
        return 0
    line = t[0] + np.arange(run) * ((t[run - 1] - t[0]) / (run - 1))
    tol = _RUN_ULPS * np.finfo(float).eps * max(abs(t[0]), abs(t[run - 1]))
    return run if np.abs(t[:run] - line).max() <= tol else 0


def _chirp_sum(x: np.ndarray, t0: float, dt: float, w0: float, dw: float,
               n_freqs: int) -> np.ndarray:
    """sum_k x_k e^(i (w0 + j dw)(t0 + k dt)) for j < n_freqs, by one
    chirp-z transform (Rabiner, Schafer & Rader 1969; Bluestein 1970).

    With a = dw dt, j k = (j^2 + k^2 - (k - j)^2) / 2 turns the sum into
    e^(i (w0 t0 + j dw t0 + a j^2 / 2)) times the convolution of
    u_k = x_k e^(i (k w0 dt + a k^2 / 2)) with the chirp e^(-i a m^2 / 2),
    three FFTs of the first power of two >= J + K - 1. Every phase is
    :func:`_reduced_phase` of an exact product of the grid's floats.
    """
    n_run = len(x)
    half = Fraction(dw) * Fraction(dt) / 2
    m = np.arange(max(n_freqs, n_run), dtype=float)
    chirp = _reduced_phase(half, m * m)                # a m^2 / 2
    size = 1 << (n_freqs + n_run - 2).bit_length()     # 2^p >= J + K - 1
    u = np.zeros(size, dtype=complex)
    linear = _reduced_phase(Fraction(w0) * Fraction(dt), m[:n_run])
    u[:n_run] = x * np.exp(1j * (chirp[:n_run] + linear))
    c = np.zeros(size, dtype=complex)
    c[:n_freqs] = np.exp(-1j * chirp[:n_freqs])
    c[size - n_run + 1:] = np.exp(-1j * chirp[n_run - 1:0:-1])
    v = np.fft.ifft(np.fft.fft(u) * np.fft.fft(c))[:n_freqs]
    outer = (chirp[:n_freqs]
             + _reduced_phase(Fraction(dw) * Fraction(t0), m[:n_freqs])
             + _reduced_phase(Fraction(w0) * Fraction(t0), np.ones(1)))
    return v * np.exp(1j * outer)


def _table_sum(t: np.ndarray, x: np.ndarray, freqs: np.ndarray,
               heads: np.ndarray, rows: int) -> np.ndarray:
    """sum_k x_k e^(i w_j t_k) with e^(i w_j t) = e^(i w_b t) e^(i (w_(aB) -
    w_0) t), j = a B + b: one product of an A-row and a B-row table of
    exponentials, :data:`SPECTRUM_BLOCK` delays at a time."""
    total = np.zeros((len(heads), rows), dtype=complex)
    for lo in range(0, len(t), SPECTRUM_BLOCK):
        chunk = t[lo:lo + SPECTRUM_BLOCK]
        head = np.exp(1j * np.outer(heads, chunk))
        head *= x[lo:lo + SPECTRUM_BLOCK]
        total += head @ np.exp(1j * np.outer(chunk, freqs[:rows]))
    return total.ravel()[:len(freqs)]


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
    else :class:`ValueError`. The delays take one of two paths, chosen
    from the grids alone (:func:`_chirp_run`):

    - the leading uniform run of K delays, each within a few ulps of
      t_0 + k dt, is one chirp-z transform (:func:`_chirp_sum`),
      O((J + K) log(J + K)), when K >= :data:`_CHIRP_MIN_RUN` (256),
      K J >= :data:`_CHIRP_MIN_TERMS` (2^14) and J <=
      :data:`_CHIRP_MAX_INDEX` + 1, the run cut at that length; the
      crossover table is at :data:`_CHIRP_MIN_RUN`;
    - every other delay (the geometric tail, or the whole grid) takes
      the phase tables (:func:`_table_sum`): writing j = a B + b with
      B = ceil(sqrt(J)) factors the phase, e^{i w_j t} = e^{i w_b t}
      e^{i (w_(aB) - w_0) t}, so the sum is one product P diag(q r) Q^T
      of a B-row and an A-row table of exponentials (A = ceil(J / B)),
      accumulated :data:`SPECTRUM_BLOCK` delays at a time.

    At the fig2b grid (2501 uniform and 120 geometric delays, 4001
    frequencies) the spectrum takes 1.5 ms instead of the tables' 9.2
    ms at N = 24 (medians of 40 alternating in-process calls, BLAS on 1
    thread, 2-vCPU VM) and agrees with one cos
    and one sin per (frequency, delay) to 3.1e-16 of the peak at N = 24
    and 1.6e-16 at N = 100 (the tables alone: 3.8e-16 and 2.0e-16).
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
    run = _chirp_run(t, n_freqs)
    total = _table_sum(t[run:], weighted[run:], freqs, heads, rows)
    if run:
        total += _chirp_sum(weighted[:run], t[0],
                            (t[run - 1] - t[0]) / (run - 1), freqs[0],
                            (freqs[-1] - freqs[0]) / (n_freqs - 1), n_freqs)
    values = lorentz + total.real / np.pi
    return Spectrum(freqs=freqs, values=values, metadata=meta)
