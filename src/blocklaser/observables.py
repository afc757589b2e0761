"""Expectation values, two-time correlations and the output spectrum.

Equal-time expectations reduce to weighted sums of a handful of
coefficients: pairing an operator with the state applies the operator
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

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import trapezoid

from .dynamics import SolverError, SymmetricState, propagate_grid
from .liouvillian import liouvillian_for, photon_trace_weights, trace_functional
from .model import ModelParams
from .opkernels import apply_chain
from .symbasis import BasisElement, SectorBasis, enumerate_sector

#: frequency rows per block of power_spectrum's exp(i w t) phase matrix;
#: at fig2b (2621 delays) a block is 2.7 MB, the whole 4001-row matrix 168 MB
SPECTRUM_BLOCK = 64


class PoorFitError(SolverError):
    """Exponential tail fit rejected by the residual diagnostic."""


@dataclass
class CorrelationTrace:
    """Samples of a normalized correlation function on a time grid."""

    times: np.ndarray
    values: np.ndarray
    normalization: float   # the equal-time denominator that was divided out


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


def _diag_sum(state: SymmetricState, content: Tuple[int, int, int],
              extra_m_weight=None) -> complex:
    """Sum c_(content, m, m) * weight(m) over the photon diagonal."""
    sector = state.sector
    pm = photon_trace_weights(sector.photon_cutoff)
    total = 0.0 + 0.0j
    for m in range(sector.photon_cutoff + 1):
        k = sector.index_of(BasisElement(*content, m, m))
        if k is None:
            continue
        w = pm[m] if extra_m_weight is None else extra_m_weight(m, pm)
        total += state.coeffs[k] * w
    return total


def expect_sigma_z(state: SymmetricState) -> float:
    """Per-atom inversion <s_1^z>."""
    return (_diag_sum(state, (0, 0, 1)) / state.sector.n_atoms).real


def expect_spin_spin(state: SymmetricState) -> float:
    """Cross-atom coherence <s_1^+ s_2^->; undefined for a single atom."""
    N = state.sector.n_atoms
    if N < 2:
        raise ValueError("spin-spin coherence needs at least two atoms")
    return (_diag_sum(state, (1, 1, 0)) / (4.0 * N * (N - 1))).real


def expect_photon_number(state: SymmetricState) -> float:
    """Cavity occupation <a^+ a>."""
    pm = photon_trace_weights(state.sector.photon_cutoff)

    def weight(m, _pm):
        high = pm[m + 1] if m + 1 < len(pm) else 0.0
        return high + m * pm[m]

    return _diag_sum(state, (0, 0, 0), weight).real


def _apply_mode_chain(state_coeffs: np.ndarray, sector: SectorBasis,
                      kinds: Sequence[str], target: SectorBasis) -> np.ndarray:
    """Apply a chain of cavity kernels to a coefficient vector.

    The kernels are composed element-wise before any sector lookup, so
    intermediate products may pass through other charge sectors; the final
    elements must all land in ``target``. Contributions to one target
    element add up in column order.
    """
    src = np.flatnonzero(state_coeffs != 0.0)
    cols, contents, w = apply_chain(kinds, src, sector.contents[src],
                                    np.ones(len(src)), sector.n_atoms,
                                    sector.photon_cutoff)
    rows = target.positions(contents)
    if (rows < 0).any():  # cavity kernels shift the charge deterministically
        f = BasisElement(*map(int, contents[np.argmax(rows < 0)]))
        raise AssertionError(f"element {f} missed sector {target}")
    terms = w * state_coeffs[cols]
    out = np.empty(len(target), dtype=complex)
    out.real = np.bincount(rows, terms.real, minlength=len(target))
    out.imag = np.bincount(rows, terms.imag, minlength=len(target))
    return out


def _adag_trace_pairing(target: SectorBasis) -> np.ndarray:
    """Row vector v with Tr[a^+ rho'] = v . c' on the shifted sector."""
    charge0 = enumerate_sector(target.n_atoms, target.photon_cutoff,
                               target.delta_n + 1)
    t0 = trace_functional(charge0)
    cols, contents, w = apply_chain(("adag_left",), np.arange(len(target)),
                                    target.contents, np.ones(len(target)),
                                    target.n_atoms, target.photon_cutoff)
    rows = charge0.positions(contents)
    hit = rows >= 0
    return np.bincount(cols[hit], w[hit] * t0[rows[hit]],
                       minlength=len(target))


def g1_trace(params: ModelParams, steady: SymmetricState,
             times: Sequence[float]) -> CorrelationTrace:
    """First-order coherence g1(t) = <a^+(t) a(0)> / <a^+ a>.

    The seed a . rho_ss lives one U(1) charge below the steady state; it is
    evolved with that sector's Liouvillian and paired with a^+ under the
    trace at every delay.
    """
    nb = expect_photon_number(steady)
    if nb <= 1e-14:
        raise SolverError("zero photon number; g1 normalization undefined")
    sector = steady.sector
    shifted = enumerate_sector(sector.n_atoms, sector.photon_cutoff,
                               sector.delta_n - 1)
    c0 = _apply_mode_chain(steady.coeffs, sector, ["a_left"], shifted)
    pairing = _adag_trace_pairing(shifted)
    L1 = liouvillian_for(params, shifted.delta_n)
    values = propagate_grid(L1, c0, times, observe=lambda c: pairing @ c)
    return CorrelationTrace(times=np.asarray(times, dtype=float),
                            values=np.asarray(values) / nb,
                            normalization=nb)


def g2_trace(params: ModelParams, steady: SymmetricState,
             times: Sequence[float]) -> CorrelationTrace:
    """Intensity correlation g2(t) = <a^+(0) a^+(t) a(t) a(0)> / <a^+ a>^2.

    The seed a . rho_ss . a^+ keeps the U(1) charge, so the evolution stays
    in the steady state's own sector and the readout is the photon number.
    """
    nb = expect_photon_number(steady)
    if nb <= 1e-14:
        raise SolverError("zero photon number; g2 normalization undefined")
    sector = steady.sector
    c0 = _apply_mode_chain(steady.coeffs, sector, ["a_left", "adag_right"], sector)
    L0 = liouvillian_for(params, sector.delta_n)

    def number_readout(c):
        return expect_photon_number(SymmetricState(sector, c))

    values = propagate_grid(L0, c0, times, observe=number_readout)
    return CorrelationTrace(times=np.asarray(times, dtype=float),
                            values=np.real(np.asarray(values)) / nb ** 2,
                            normalization=nb ** 2)


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
                  window: Tuple[float, float],
                  residual_tol: float = 1e-2) -> LinewidthFit:
    """Least-squares exponential fit of |g1| over a late-time window.

    Fits log|g1| = log(amplitude) - (rate/2) t and reports the rms of the
    log residuals; early windows that still contain fast transients are
    rejected through ``residual_tol``. The window start should sit well
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
    if rms > residual_tol:
        raise PoorFitError(
            f"log-residual rms {rms:.3e} above {residual_tol:.1e}; "
            "tail is not a single exponential over this window")
    if slope >= 0:
        raise PoorFitError("tail is non-decaying over the fit window")
    return LinewidthFit(rate=-2.0 * slope,
                        amplitude=float(np.exp(intercept)),
                        rate_stderr=2.0 * float(np.sqrt(cov[0, 0])),
                        log_residual_rms=rms,
                        window=(float(t_min), float(t_max)))


def power_spectrum(trace: CorrelationTrace,
                   freqs: Optional[np.ndarray] = None,
                   tail_fit: Optional[LinewidthFit] = None,
                   decay_floor: float = 1e-3) -> Spectrum:
    """Normalized emission spectrum S(w) = (1/2pi) int g1(t) e^{iwt} dt.

    Uses g1(-t) = conj(g1(t)), i.e. S(w) = (1/pi) Re int_0^inf g1 e^{iwt}.
    With a tail fit the fitted exponential is transformed analytically
    into its Lorentzian of half-width rate/2 and only the residual is
    integrated numerically; the narrow coherent peak and the broad
    structure then never share one quadrature grid. Without a fit the
    trace must itself have decayed below ``decay_floor``. The phase matrix
    exp(i w t) is evaluated ``SPECTRUM_BLOCK`` frequencies at a time.
    """
    t = trace.times
    g = trace.values
    if freqs is None:
        dt = np.min(np.diff(t))
        wmax = np.pi / (4.0 * dt)
        freqs = np.linspace(-wmax, wmax, 2001)
    freqs = np.asarray(freqs, dtype=float)

    meta = {"window_length": float(t[-1])}
    if tail_fit is not None:
        half = 0.5 * tail_fit.rate
        residual = g - tail_fit.amplitude * np.exp(-half * t)
        lorentz = (tail_fit.amplitude / np.pi) * half / (half ** 2 + freqs ** 2)
        meta.update(tail_rate=tail_fit.rate, tail_amplitude=tail_fit.amplitude)
    else:
        if np.abs(g[-1]) > decay_floor:
            raise SolverError(
                f"|g1| = {np.abs(g[-1]):.3e} at the end of the trace; "
                "supply a tail fit or extend the grid")
        residual = g
        lorentz = 0.0
    numeric = np.empty(len(freqs))
    for lo in range(0, len(freqs), SPECTRUM_BLOCK):
        phases = np.exp(1j * np.outer(freqs[lo:lo + SPECTRUM_BLOCK], t))
        numeric[lo:lo + SPECTRUM_BLOCK] = trapezoid(
            phases * residual[None, :], t, axis=1).real
    values = lorentz + numeric / np.pi
    return Spectrum(freqs=freqs, values=values, metadata=meta)
