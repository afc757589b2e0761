import numpy as np
import pytest

from blocklaser import (ModelParams, enumerate_sector, liouvillian_for,
                        trace_functional, initial_mixed_state, propagate,
                        steady_state, correlation_times, effective_rabi,
                        expect_photon_number, expect_sigma_z, expect_spin_spin,
                        fit_linewidth, g1_trace, g2_trace, power_spectrum)
from blocklaser.dynamics import SolverError, SymmetricState
from blocklaser.observables import (CorrelationTrace, PoorFitError,
                                    _adag_trace_pairing)
from blocklaser.liouvillian import chain_matrix, photon_trace_weights
from blocklaser.oracle import (oracle_g1, oracle_g2, oracle_steady_state,
                               site_operators)
from blocklaser.model import random_params
from lifting import lift_state


def test_mixed_state_expectations():
    s = initial_mixed_state(enumerate_sector(3, 1, 0))
    assert expect_sigma_z(s) == 0.0
    assert expect_spin_spin(s) == 0.0
    assert expect_photon_number(s) == pytest.approx(0.5)


def test_expectations_match_oracle_on_evolved_states(rng):
    for cutoff in (1, 2):
        p = random_params(rng, 3, cutoff)
        L = liouvillian_for(p, 0)
        c0 = initial_mixed_state(L.sector).coeffs
        s = SymmetricState(
            L.sector, propagate(L, c0, [2.0 / p.cavity_decay]).values[0])
        rho = lift_state(s)
        ops = site_operators(3, cutoff)
        assert expect_sigma_z(s) == pytest.approx(
            np.trace(ops["sz"][0] @ rho).real, abs=1e-10)
        assert expect_spin_spin(s) == pytest.approx(
            np.trace(ops["sp"][0] @ ops["sm"][1] @ rho).real, abs=1e-10)
        assert expect_photon_number(s) == pytest.approx(
            np.trace(ops["n"] @ rho).real, abs=1e-10)


def test_expectations_are_real_for_hermitian_states(rng):
    # raw pairing sums have vanishing imaginary part when c(e) = conj(c(swap e))
    sector = enumerate_sector(3, 1, 0)
    c = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
    swap = [sector.index_of(type(e)(e.n_minus, e.n_plus, e.n_z, e.n_a, e.n_adag))
            for e in sector.elements]
    c = c + np.conj(c[swap])
    pm = photon_trace_weights(1)
    for content in [(0, 0, 1), (1, 1, 0), (0, 0, 0)]:
        total = sum(c[sector.index_of(type(sector.elements[0])(*content, m, m))] * pm[m]
                    for m in (0, 1))
        assert abs(total.imag) < 1e-10 * max(1.0, abs(total))


def test_spin_spin_needs_two_atoms():
    s = initial_mixed_state(enumerate_sector(1, 1, 0))
    with pytest.raises(ValueError):
        expect_spin_spin(s)


def test_spin_spin_bounded_on_steady_sweep():
    N, g = 30, 1.0 / np.sqrt(300.0)
    for wt in np.linspace(0.2, 3.0, 8):
        p = ModelParams(N, 1, g, 1.0, wt / N)
        L = liouvillian_for(p, 0)
        ss = steady_state(L, trace_functional(L.sector))
        assert expect_spin_spin(ss) <= 0.125 + 1e-6


@pytest.mark.parametrize("cutoff", [1, 2])
def test_two_time_traces_match_oracle(cutoff, rng):
    p = random_params(rng, 3, cutoff)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    rho = oracle_steady_state(p)
    times = np.linspace(0.0, 4.0 / p.cavity_decay, 60)
    g1 = g1_trace(p, ss, times)
    g2 = g2_trace(p, ss, times)
    assert np.abs(g1.values - oracle_g1(p, times, rho_ss=rho)).max() < 1e-8
    assert np.abs(g2.values - oracle_g2(p, times, rho_ss=rho)).max() < 1e-8
    assert g1.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(g1.values).max() <= 1.0 + 1e-9
    assert g2.values.min() >= -1e-10
    if cutoff == 1:
        assert abs(g2.values[0]) < 1e-14  # b^2 = 0 for the two-level mode


def test_traces_fail_without_photons():
    p = ModelParams(2, 1, 0.0, 1.0, 0.5)  # decoupled: empty cavity
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    with pytest.raises(SolverError):
        g1_trace(p, ss, np.linspace(0, 1, 5))
    with pytest.raises(SolverError):
        g2_trace(p, ss, np.linspace(0, 1, 5))


def test_effective_rabi():
    p = ModelParams(100, 1, 0.3, 1.0, 0.1)
    assert effective_rabi(p, 0.0) == 0.0
    assert effective_rabi(p, 0.125) == pytest.approx(100 * 0.3 / (2 * np.sqrt(2)))
    with pytest.raises(ValueError):
        effective_rabi(p, -1e-3)


def test_correlation_times_hybrid_structure():
    t = correlation_times(dt_dense=0.1, t_dense=2.0, t_max=100.0, n_tail=10)
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    dense = t[t <= 2.0 + 1e-12]
    assert np.allclose(np.diff(dense), 0.1)
    assert t[-1] == pytest.approx(100.0)
    assert len(t) == len(dense) + 10
    # no tail requested: plain dense grid
    short = correlation_times(dt_dense=0.5, t_dense=2.0)
    assert np.allclose(short, [0, 0.5, 1.0, 1.5, 2.0])


def test_fit_recovers_exact_exponential():
    rate = 0.37
    t = np.linspace(5.0, 60.0, 120)
    trace = CorrelationTrace(times=t, values=0.3 * np.exp(-0.5 * rate * t),
                             normalization=1.0)
    fit = fit_linewidth(trace, window=(5.0, 60.0))
    assert fit.rate == pytest.approx(rate, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.3, rel=1e-6)


def test_fit_flags_contaminated_window():
    # fast + slow decay: an early window is biased and rejected, a late
    # window after the fast transient is clean
    slow, fast = 0.02, 2.0
    t = np.linspace(0.0, 400.0, 2000)
    values = 0.3 * np.exp(-0.5 * slow * t) + 0.7 * np.exp(-0.5 * fast * t)
    trace = CorrelationTrace(times=t, values=values, normalization=1.0)
    with pytest.raises(PoorFitError):
        fit_linewidth(trace, window=(0.2, 100.0))
    fit = fit_linewidth(trace, window=(15.0, 400.0))
    assert fit.rate == pytest.approx(slow, rel=1e-3)


def test_fit_rejects_too_few_points_and_growth():
    t = np.linspace(0, 10, 50)
    trace = CorrelationTrace(times=t, values=np.exp(+0.01 * t), normalization=1.0)
    with pytest.raises(PoorFitError):
        fit_linewidth(trace, window=(0.0, 0.1))
    with pytest.raises(PoorFitError):
        fit_linewidth(trace, window=(0.0, 10.0))


def test_spectrum_of_pure_exponential_is_lorentzian():
    rate = 0.8
    t = np.linspace(0.0, 40.0, 4000)
    trace = CorrelationTrace(times=t, values=np.exp(-0.5 * rate * t),
                             normalization=1.0)
    freqs = np.linspace(-8.0, 8.0, 801)
    spec = power_spectrum(trace, freqs=freqs)
    expected = (rate / 2) / np.pi / ((rate / 2) ** 2 + freqs ** 2)
    assert np.abs(spec.values - expected).max() < 1e-4
    area = np.trapezoid(spec.values, freqs)
    assert area == pytest.approx(1.0, abs=0.05)


def test_spectrum_two_scale_separation():
    # slow component via the analytic Lorentzian, fast via quadrature
    slow, fast = 1e-3, 1.0
    t = correlation_times(dt_dense=0.02, t_dense=40.0, t_max=20000.0, n_tail=200)
    values = 0.3 * np.exp(-0.5 * slow * t) + 0.7 * np.exp(-0.5 * fast * t)
    trace = CorrelationTrace(times=t, values=values, normalization=1.0)
    fit = fit_linewidth(trace, window=(100.0, 20000.0))
    freqs = np.linspace(-6.0, 6.0, 1201)
    spec = power_spectrum(trace, freqs=freqs, tail_fit=fit)
    expected = (0.3 * (slow / 2) / ((slow / 2) ** 2 + freqs ** 2)
                + 0.7 * (fast / 2) / ((fast / 2) ** 2 + freqs ** 2)) / np.pi
    assert np.abs(spec.values - expected).max() < 2e-3
    assert spec.metadata["tail_rate"] == pytest.approx(slow, rel=1e-3)


def test_spectrum_blocks_match_the_whole_phase_matrix(rng):
    # several blocks plus a partial one, against the unblocked weighted sum
    from scipy.integrate import trapezoid
    from blocklaser.observables import SPECTRUM_BLOCK
    t = correlation_times(dt_dense=0.05, t_dense=10.0, t_max=400.0, n_tail=40)
    values = (0.4 * np.exp(-0.01 * t)
              + 0.6 * np.exp((-0.5 + 1.3j) * t) * (1 + 0.1 * rng.random(len(t))))
    trace = CorrelationTrace(times=t, values=values, normalization=1.0)
    fit = fit_linewidth(trace, window=(100.0, 400.0))
    freqs = np.linspace(-5.0, 5.0, 3 * SPECTRUM_BLOCK + 17)
    lorentz = (fit.amplitude / np.pi) * (0.5 * fit.rate) / ((0.5 * fit.rate) ** 2 + freqs ** 2)
    residual = values - fit.amplitude * np.exp(-0.5 * fit.rate * t)
    q = np.zeros(len(t))   # trapezoid weights
    q[:-1] += 0.5 * np.diff(t)
    q[1:] += 0.5 * np.diff(t)
    phase = np.outer(freqs, t)
    whole = (np.cos(phase) @ (q * residual.real)
             - np.sin(phase) @ (q * residual.imag))
    spec = power_spectrum(trace, freqs=freqs, tail_fit=fit)
    assert (np.abs(spec.values - (lorentz + whole / np.pi)).max()
            <= 1e-14 * np.abs(whole).max())
    # the weighted sum is the trapezoid rule of exp(i w t) r(t)
    quad = trapezoid(np.exp(1j * phase) * residual[None, :], t, axis=1).real
    assert np.abs(whole - quad).max() <= 1e-14 * np.abs(quad).max()


def _direct_spectrum(t, values, freqs):
    """(1/pi) Re of the trapezoid sum of exp(i w t) g(t), one cos and one
    sin per (frequency, delay)."""
    q = np.zeros(len(t))
    q[:-1] += 0.5 * np.diff(t)
    q[1:] += 0.5 * np.diff(t)
    phase = np.outer(freqs, t)
    return (np.cos(phase) @ (q * values.real)
            - np.sin(phase) @ (q * values.imag)) / np.pi


#: delay grids of the direct-sum spectrum test. RUN_AND_TAIL: 800 uniform
#: delays and 9 geometric ones, where J <= 7 fills three chunks of the
#: phase tables and part of a fourth; CORRELATION: the fig2b and benchmark
#: grid, 2501 uniform delays and 120 geometric ones; ALL_UNIFORM: one run,
#: off the origin; SHORT_RUN: 100 uniform delays, fewer than the chirp-z
#: path takes, then a geometric tail; JITTERED: a uniform grid moved by
#: 1e-9 relative, too far off a line for a run
RUN_AND_TAIL = np.concatenate([np.linspace(0.0, 40.0, 800),
                               np.geomspace(41.0, 300.0, 9)])
CORRELATION = correlation_times(dt_dense=0.02, t_dense=50.0, t_max=1500.0,
                                n_tail=120)
ALL_UNIFORM = np.linspace(0.5, 60.0, 3000)
SHORT_RUN = np.concatenate([np.linspace(0.0, 2.0, 100),
                            np.geomspace(2.1, 300.0, 400)])
JITTERED = (np.linspace(0.0, 40.0, 2000)
            * (1.0 + 1e-9 * np.random.default_rng(7).standard_normal(2000)))


@pytest.mark.parametrize("t, band, run", [
    pytest.param(RUN_AND_TAIL, (-4.0, 3.0, n), run, id=str(n))
    for n, run in [(1, 0), (2, 0), (3, 0), (7, 0), (209, 800), (4001, 800)]
] + [
    pytest.param(CORRELATION, (-10.0, 10.0, 4001), 2501, id="correlation"),
    pytest.param(ALL_UNIFORM, (-6.0, 8.0, 1001), 3000, id="all-uniform"),
    pytest.param(SHORT_RUN, (-4.0, 3.0, 4001), 0, id="short-run"),
    pytest.param(JITTERED, (-4.0, 3.0, 4001), 0, id="jittered"),
])
def test_factored_phase_matches_direct_sum(t, band, run, rng):
    # J = 3, 7, 209 and 4001 leave the last row of the A x B table layout
    # partial; ``run`` delays take the chirp-z path, the rest the tables
    from blocklaser.observables import SPECTRUM_BLOCK, _chirp_run
    assert len(RUN_AND_TAIL) % SPECTRUM_BLOCK != 0
    freqs = np.linspace(*band)
    assert _chirp_run(t, len(freqs)) == run
    check_spectrum_matches_direct_sum(t, freqs, rng)


def check_spectrum_matches_direct_sum(t, freqs, rng):
    """power_spectrum of a seeded decaying trace on the delays ``t``
    against one cos and one sin per (frequency, delay), to 1e-14 of the
    peak."""
    values = (np.exp((-0.3 + 0.9j) * t) + 0.05 * rng.random(len(t))
              * np.exp(-0.2 * t))
    trace = CorrelationTrace(times=t, values=values, normalization=1.0)
    spec = power_spectrum(trace, freqs=freqs)
    direct = _direct_spectrum(t, values, freqs)
    assert np.abs(spec.values - direct).max() <= 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("freqs", [
    np.array([-1.0, 0.0, 0.5, 1.0]),
    np.concatenate([np.linspace(-2.0, 0.0, 50), np.linspace(0.1, 2.0, 50)]),
    np.geomspace(0.1, 10.0, 40),
    np.array([0.0, np.nan, 1.0]),
    np.array([-np.inf, 0.0, np.inf]),
    np.array([]),
])
def test_spectrum_rejects_uneven_or_non_finite_freqs(freqs):
    t = np.linspace(0.0, 30.0, 301)
    trace = CorrelationTrace(times=t, values=np.exp(-t), normalization=1.0)
    with pytest.raises(ValueError, match="freqs must be"):
        power_spectrum(trace, freqs=freqs)


def test_spectrum_requires_decayed_trace_or_fit():
    t = np.linspace(0.0, 5.0, 100)
    trace = CorrelationTrace(times=t, values=np.exp(-0.01 * t), normalization=1.0)
    with pytest.raises(SolverError):
        power_spectrum(trace, freqs=np.linspace(-1.0, 1.0, 11))


def test_g1_envelope_monotone_at_late_times(rng):
    p = random_params(rng, 3, 1, with_gamma=False)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    t = np.linspace(0.0, 30.0 / p.cavity_decay, 200)
    tr = g1_trace(p, ss, t)
    env = np.abs(tr.values[t > 10.0 / p.cavity_decay])
    assert np.all(np.diff(env) <= 1e-9)


@pytest.mark.parametrize("n_atoms,cutoff", [(5, 3), (24, 1)])
def test_array_mode_chains_equal_entrywise_expansion(n_atoms, cutoff, rng,
                                                     expand):
    sector = enumerate_sector(n_atoms, cutoff, 0)
    c = rng.normal(size=len(sector)) + 1j * rng.normal(size=len(sector))
    c[rng.random(len(sector)) < 0.2] = 0.0
    for kinds, shift in [(["a_left"], -1), (["a_left", "adag_right"], 0)]:
        target = enumerate_sector(n_atoms, cutoff, shift)
        ref = np.zeros(len(target), dtype=complex)
        for j, e in enumerate(sector.elements):
            if c[j] != 0.0:
                for f, w in expand(kinds, e, n_atoms, cutoff).items():
                    ref[target.index_of(f)] += w * c[j]
        seed = chain_matrix(((1.0, tuple(kinds)),), n_atoms, cutoff, 0, shift)
        assert np.array_equal(seed @ c, ref)
    shifted = enumerate_sector(n_atoms, cutoff, -1)
    t0 = trace_functional(sector)
    ref = np.zeros(len(shifted))
    for j, f in enumerate(shifted.elements):
        for h, w in expand(("adag_left",), f, n_atoms, cutoff).items():
            k = sector.index_of(h)
            if k is not None:
                ref[j] += w * t0[k]
    assert np.array_equal(_adag_trace_pairing(shifted), ref)


def test_mode_chain_into_the_wrong_sector_raises():
    with pytest.raises(AssertionError, match="escaped sector"):
        chain_matrix(((1.0, ("a_left",)),), 3, 1, 0, 0)
