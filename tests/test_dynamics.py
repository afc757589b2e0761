import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from blocklaser import (ModelParams, enumerate_sector, build_liouvillian,
                        correlation_times, liouvillian_for, trace_functional,
                        initial_mixed_state, propagate, steady_state,
                        slow_eigenmode, expect_photon_number, expect_sigma_z,
                        expect_spin_spin, g1_trace, g2_trace)
from blocklaser import dynamics, liouvillian
from blocklaser.cli import main
from blocklaser.dynamics import (DegenerateSteadyStateError,
                                 PrecisionLossError, SolverError,
                                 SymmetricState)
from blocklaser.liouvillian import (Superoperator, _part_terms, chain_matrix,
                                    diagonal_functional, number_functional)
from blocklaser.observables import _adag_trace_pairing
from blocklaser.symbasis import BasisElement
from blocklaser.oracle import (build_full_liouvillian, oracle_expectations,
                               oracle_g1, oracle_g2, oracle_steady_state,
                               site_operators)
from blocklaser.model import (PART_RATES, coupling_from_kappa_tilde,
                              random_params)
from lifting import lift_state


def test_mixed_state_normalization():
    for M in (1, 2):
        sector = enumerate_sector(3, M, 0)
        s = initial_mixed_state(sector)
        k = sector.index_of(BasisElement(0, 0, 0, 0, 0))
        assert s.coeffs[k] == pytest.approx(1.0 / (M + 1))
        assert trace_functional(sector) @ s.coeffs == pytest.approx(1.0)
        assert expect_sigma_z(s) == 0.0
    s1 = initial_mixed_state(enumerate_sector(3, 1, 0))
    assert expect_photon_number(s1) == pytest.approx(0.5)
    s2 = initial_mixed_state(enumerate_sector(3, 2, 0))
    assert expect_photon_number(s2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        initial_mixed_state(enumerate_sector(3, 1, 1))


def test_evolve_with_zero_generator_is_identity():
    p = ModelParams(2, 1, 0.0, 0.0, 0.0)
    sector = enumerate_sector(2, 1, 0)
    L = build_liouvillian(p, sector)
    s = initial_mixed_state(sector)
    out = propagate(L, s.coeffs, [3.0]).values[0]
    assert np.allclose(out, s.coeffs, atol=1e-14)


def test_trace_invariant_along_trajectory(rng):
    p = random_params(rng, 3, 1)
    L = liouvillian_for(p, 0)
    t = trace_functional(L.sector)
    s = initial_mixed_state(L.sector)
    traj = propagate(L, s.coeffs,
                     np.linspace(0, 8.0 / p.cavity_decay, 30)).values
    traces = traj @ t
    assert np.abs(traces - 1.0).max() < 1e-9


def test_evolution_matches_oracle(rng):
    p = random_params(rng, 2, 1)
    sector = enumerate_sector(2, 1, 0)
    L = build_liouvillian(p, sector)
    s = initial_mixed_state(sector)
    t_final = 5.0 / p.cavity_decay
    rho0 = lift_state(s).reshape(-1)
    rho_t = propagate(build_full_liouvillian(p), rho0, [t_final]).values[0]
    out = SymmetricState(sector, propagate(L, s.coeffs, [t_final]).values[0])
    assert np.abs(lift_state(out).reshape(-1) - rho_t).max() < 1e-11


def test_state_sector_mismatch_rejected():
    p = ModelParams(2, 1, 1.0, 1.0, 0.5)
    L = liouvillian_for(p, 0)
    other = initial_mixed_state(enumerate_sector(3, 1, 0))
    with pytest.raises(ValueError, match="dimension 12"):
        propagate(L, other.coeffs, [1.0])


def test_propagate_grid_matches_single_steps(rng):
    p = random_params(rng, 2, 1)
    L = liouvillian_for(p, 0)
    s = initial_mixed_state(L.sector)
    # hybrid grid: dense uniform run plus geometric tail
    times = np.concatenate([np.linspace(0.0, 1.0, 11), np.geomspace(1.5, 40.0, 7)])
    traj = propagate(L, s.coeffs, times).values
    for k in (0, 3, 10, 12, 17):
        single = propagate(L, s.coeffs, [times[k]]).values[0]
        assert np.abs(traj[k] - single).max() < 1e-11
    e0 = np.zeros(len(s.coeffs))
    e0[0] = 1.0
    observed = propagate(L, s.coeffs, times, observe=e0).values
    assert np.allclose(observed, traj[:, 0])
    with pytest.raises(ValueError):
        propagate(L, s.coeffs, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        propagate(L, s.coeffs, [-1.0, 1.0])


#: the walks of 625 and 2304 rows hold A as CSR, that of 52 rows as a
#: dense array (``dynamics._DENSE_ROWS``)
PROPAGATION_CASES = ["sector N=24 charge -1", "sector N=4 M=2 charge -1",
                     "oracle N=4 M=2"]
MIXED_RATES = dict(coupling=0.7, cavity_decay=1.1, pump=0.6,
                   spont_emission=0.2, dephasing=0.1)


def _propagation_case(case):
    """(generator, scaled matrix, scaling, raw start, hybrid time grid)."""
    if case == "sector N=24 charge -1":
        L = liouvillian_for(ModelParams(24, 1, 24 ** -0.5, 1.0, 2.0 / 24), -1)
    elif case == "sector N=4 M=2 charge -1":
        L = liouvillian_for(ModelParams(4, 2, **MIXED_RATES), -1)
        assert len(L.sector) == 52
    else:
        L = build_full_liouvillian(ModelParams(4, 2, **MIXED_RATES))
    if isinstance(L, Superoperator):
        mat, d = dynamics._scaled(L.physical(), L.sector)
    else:
        mat, d = L, np.ones(L.shape[0])
    rng = np.random.default_rng(5)
    c0 = (rng.standard_normal(len(d)) + 1j * rng.standard_normal(len(d))) / d
    # hybrid grid: dense uniform run plus geometric tail
    times = np.concatenate([np.linspace(0.0, 5.0, 51),
                            np.geomspace(6.0, 400.0, 12)])
    return L, mat, d, c0, times


@pytest.mark.parametrize("case", PROPAGATION_CASES)
def test_propagate_grid_matches_expm_multiply_reference(case):
    L, mat, d, c0, times = _propagation_case(case)
    traj = propagate(L, c0, times).values * d
    ref, c, t_prev = [], c0 * d, 0.0
    trace = mat.diagonal().sum()
    for t in times:
        if t > t_prev:
            c = spla.expm_multiply(mat * (t - t_prev), c,
                                   traceA=trace * (t - t_prev))
            t_prev = t
        ref.append(c)
    ref = np.asarray(ref)
    assert np.abs(traj - ref).max() <= 1e-12 * np.abs(ref).max()


def _exact_exit_taylor_step(stepper, v, h):
    """The Taylor loop that takes the exact max|f| after every update:
    (exp(h mat) v, the term rows of its last sub-step)."""
    m, s = stepper._degree(h)
    eta = np.exp(h * stepper.mu / s)
    f = v.copy()
    for _ in range(s):
        rows = [v.copy()]
        c1 = np.abs(v).max()
        for j in range(m):
            v = stepper.A @ v
            v *= h / (s * (j + 1))
            rows.append(v)
            c2 = np.abs(v).max()
            f += v
            if c1 + c2 <= dynamics._TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        v = f
    return f, np.asarray(rows)


def _longest_run(stepper):
    """The largest h with h ||A||_1 <= theta_55: the longest Taylor run."""
    theta = dynamics._THETA[dynamics._M_MAX]
    h = theta / stepper.norm1
    while h * stepper.norm1 > theta:
        h = np.nextafter(h, 0.0)
    return h


@pytest.mark.parametrize("case", PROPAGATION_CASES)
def test_running_bound_keeps_every_taylor_exit(case):
    L, mat, d, c0, times = _propagation_case(case)
    stepper = dynamics._TaylorStepper(mat)
    h_run = _longest_run(stepper)
    c, t_prev = c0 * d, 0.0
    for t in times[1:]:
        # the s-substep step of every gap of the hybrid grid
        ref, _ = _exact_exit_taylor_step(stepper, c, t - t_prev)
        assert np.array_equal(stepper.step(c, t - t_prev), ref)
        # term-rows runs from the same state, the longest one included
        for h in (h_run, 0.37 * h_run, t - t_prev):
            if h * stepper.norm1 <= dynamics._THETA[dynamics._M_MAX]:
                end, ref_rows = _exact_exit_taylor_step(stepper, c, h)
                rows, run_end = stepper.run(c, h)
                assert np.array_equal(rows, ref_rows)
                assert np.array_equal(run_end, end)
        c, t_prev = ref, t


@pytest.mark.parametrize("case", PROPAGATION_CASES)
def test_dense_output_reads_match_expm_multiply_per_point(case):
    L, mat, d, c0, _ = _propagation_case(case)
    h_run = _longest_run(dynamics._TaylorStepper(mat))
    # three runs, the first two full and every read point inside one
    times = np.linspace(0.0, 2.5 * h_run, 31)
    traj = propagate(L, c0, times).values * d
    trace = mat.diagonal().sum()
    ref = np.asarray([spla.expm_multiply(mat * t, c0 * d, traceA=trace * t)
                      for t in times])
    assert np.abs(traj - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("case", PROPAGATION_CASES)
def test_linear_readout_equals_trajectory_pairing(case):
    L, _, d, c0, times = _propagation_case(case)
    rng = np.random.default_rng(11)
    ell = rng.standard_normal(len(d)) + 1j * rng.standard_normal(len(d))
    traj = propagate(L, c0, times).values
    observed = propagate(L, c0, times, observe=ell).values
    scale = np.abs(traj).max(axis=1) * np.abs(ell).sum()
    assert np.all(np.abs(observed - traj @ ell) <= 1e-13 * scale)


def _csr_form(mat):
    """(mat - mu I as CSR, the CSR column-sum maximum): the shifted
    generator as ``_TaylorStepper`` holds it above the dense cut."""
    n = mat.shape[0]
    mu = mat.diagonal().sum() / n
    shifted = (mat - mu * sp.identity(n, format="csr")).tocsr()
    return shifted, float(abs(shifted).sum(axis=0).max())


def test_dense_form_is_the_shifted_csr_generator_bit_for_bit():
    seen = 0
    for rates in (MIXED_RATES, dict(MIXED_RATES, dephasing=0.0)):
        for n in range(1, 6):
            for m in range(1, 4):
                for dn in (0, -1):
                    L = liouvillian_for(ModelParams(n, m, **rates), dn)
                    if len(L.sector) > dynamics._DENSE_ROWS:
                        continue
                    mat, _ = dynamics._scaled(L.matrix, L.sector)
                    stepper = dynamics._TaylorStepper(mat)
                    shifted, norm1 = _csr_form(mat)
                    A = stepper.A
                    assert isinstance(A, np.ndarray) and A.dtype == np.float64
                    assert A.flags.c_contiguous
                    assert A.tobytes() == shifted.toarray().tobytes()
                    assert (np.float64(stepper.norm1).tobytes()
                            == np.float64(norm1).tobytes())
                    seen += 1
    assert seen >= 40


def test_dense_walk_matches_the_same_stepper_walked_as_csr(monkeypatch):
    # the first criterion-1 draw at (4, 2): g1 walks 52 rows, g2 59, on
    # the validate grid; g1 also on a geometric tail, whose long steps
    # choose from the norm estimates. (g2's tail there decays at a
    # rounding-level rate, -4e-16 or -9e-16 by the form, which moves its
    # closed-form points by 1.5e-13 at t = 400: ROADMAP item 10.)
    p = random_params(np.random.default_rng(1042), 4, 2)
    ss = steady_state(liouvillian_for(p, 0))
    grid = np.linspace(0.0, 5.0 / p.cavity_decay, 100)
    tail = np.concatenate([np.linspace(0.0, 5.0, 51),
                           np.geomspace(6.0, 400.0, 12)])

    def traces():
        return [g1_trace(p, ss, grid), g2_trace(p, ss, grid),
                g1_trace(p, ss, tail)]

    dense = traces()
    init, forms = dynamics._TaylorStepper.__init__, []

    def as_csr(self, mat):
        init(self, mat)
        forms.append(type(self.A))
        self.A = sp.csr_matrix(self.A)

    monkeypatch.setattr(dynamics._TaylorStepper, "__init__", as_csr)
    csr = traces()
    assert forms == [np.ndarray] * 3
    assert dense[2].tail_delay is not None
    for a, b in zip(dense, csr):
        assert np.abs(a.values - b.values).max() <= 1e-13 * np.abs(b.values).max()
        assert a.matvecs == b.matvecs


def test_generator_above_the_cut_stays_csr_and_the_input_is_kept():
    rng = np.random.default_rng(4)
    for n, form in ((dynamics._DENSE_ROWS, np.ndarray),
                    (dynamics._DENSE_ROWS + 1, sp.csr_matrix)):
        mat = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        mat.setdiag(-rng.uniform(1.0, 2.0, n))
        before = [mat.data.copy(), mat.indices.copy(), mat.indptr.copy()]
        stepper = dynamics._TaylorStepper(mat)
        assert type(stepper.A) is form
        shifted, norm1 = _csr_form(mat)
        assert np.array_equal(sp.csr_matrix(stepper.A).toarray(),
                              shifted.toarray())
        assert stepper.norm1 == norm1
        for kept, now in zip(before, (mat.data, mat.indices, mat.indptr)):
            assert np.array_equal(kept, now)


def _count_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of ``owner.name``."""
    calls, fn = [], getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_dense_grid_takes_one_run_per_longest_step(monkeypatch):
    calls = _count_calls(monkeypatch, spla, "onenormest")
    runs = _count_calls(monkeypatch, dynamics._TaylorStepper, "run")
    steps = _count_calls(monkeypatch, dynamics._TaylorStepper, "step")
    L, mat, d, c0, _ = _propagation_case("sector N=24 charge -1")
    times = correlation_times(0.02, 50.0)
    assert len(times) == 2501
    h_max = _longest_run(dynamics._TaylorStepper(mat))
    propagate(L, c0, times, observe=np.ones(len(d)))
    # a run spans the whole gaps that fit in h_max (67 here); 2500 gaps
    # then take as many runs as h_max-long steps would
    per_run = int(h_max / 0.02)
    assert len(runs) == -(-2500 // per_run) == int(np.ceil(50.0 / h_max))
    assert calls == [] and steps == []


def test_short_steps_take_one_substep():
    stepper = dynamics._TaylorStepper(sp.csr_matrix([[0.0, 1.0], [-1.0, 0.0]]))
    theta = dynamics._THETA[dynamics._M_MAX]
    norms = np.append(np.linspace(0.0, theta, 20001),
                      [t for t in dynamics._THETA.values() if t <= theta]
                      + [np.nextafter(t, 0.0) for t in dynamics._THETA.values()
                         if t <= theta])
    for norm in norms:
        h = norm / stepper.norm1
        if h * stepper.norm1 <= theta:
            assert stepper._fragment_3_1(h)[1] == 1, norm


def test_propagate_grid_rejects_callable_observe():
    L = liouvillian_for(ModelParams(2, 1, 1.0, 1.0, 0.5), 0)
    c0 = initial_mixed_state(L.sector).coeffs
    with pytest.raises(TypeError, match="row vector"):
        propagate(L, c0, [0.0, 1.0], observe=lambda c: c[0])
    with pytest.raises(ValueError, match="observe"):
        propagate(L, c0, [0.0, 1.0], observe=np.ones(3))


def test_norm_estimates_run_once_per_grid(monkeypatch):
    calls = _count_calls(monkeypatch, spla, "onenormest")
    L = liouvillian_for(ModelParams(6, 1, 0.45, 1.0, 0.25), -1)
    c0 = np.ones(len(L.sector), dtype=complex)
    # 40 tail points put several gaps that need ||A^p||_1 estimates (the
    # ratio 1.19 makes them longer than _NORM_ONLY_BOUND / ||A||_1 from
    # t ~ 57 on) before the state is one mode and the tail turns analytic
    times = np.concatenate([np.linspace(0.0, 2.0, 11),
                            np.geomspace(5.0, 5000.0, 40)])
    walk = dynamics.propagate(L, c0, times)
    stepper = dynamics._TaylorStepper(dynamics._scaled(L.matrix, L.sector)[0])
    estimated = (np.diff(times) * stepper.norm1 > dynamics._NORM_ONLY_BOUND)
    assert walk.tail_delay is not None
    assert np.count_nonzero(estimated & (times[1:] <= walk.tail_delay)) >= 3
    assert 0 < len(calls) <= 8
    calls.clear()
    propagate(L, c0, times[:11])   # short gaps: ||h A||_1 suffices
    assert calls == []


def test_long_steps_choose_from_the_estimates_once_they_exist(monkeypatch):
    L, mat, d, c0, _ = _propagation_case("sector N=24 charge -1")
    stepper = dynamics._TaylorStepper(mat)
    h_run = _longest_run(stepper)
    theta = dynamics._THETA[dynamics._M_MAX]
    # long steps that condition (3.13) alone lets choose from ||A||_1
    hs = np.linspace(1.05 * theta, 0.95 * dynamics._NORM_ONLY_BOUND,
                     9) / stepper.norm1
    norm_only = [stepper._degree(h) for h in hs]
    assert stepper._degree(h_run) == (dynamics._M_MAX, 1)
    dp = stepper._norm_powers()
    alpha = min(max(dp[p], dp[p + 1]) for p in range(2, dynamics._P_MAX + 1))
    assert alpha < 0.55 * stepper.norm1   # 3.74 against 7.34
    for h, (m0, s0) in zip(hs, norm_only):
        m, s = stepper._degree(h)
        assert (m, s) == stepper._fragment_3_1(h)
        assert m * s < m0 * s0
        # the backward-error bound of some admissible p holds
        assert any(m >= p * (p - 1) - 1 and s >= np.ceil(
            h * max(dp[p], dp[p + 1]) / dynamics._THETA[m])
            for p in range(2, dynamics._P_MAX + 1))
    # a run still spans theta_55 / ||A||_1, in one sub-step of degree 55
    assert _longest_run(stepper) == h_run
    assert stepper._degree(h_run) == (dynamics._M_MAX, 1)
    rows, _ = stepper.run(c0 * d, h_run)
    assert len(rows) <= dynamics._M_MAX + 1
    # a walk whose grid has a gap that needs the estimates takes them
    # before its first long step, and its dense runs keep their length
    runs = _count_calls(monkeypatch, dynamics._TaylorStepper, "run")
    calls = _count_calls(monkeypatch, spla, "onenormest")
    times = np.append(correlation_times(0.02, 50.0), 70.0)
    walk = propagate(L, c0, times, observe=np.ones(len(d)))
    assert len(runs) == int(np.ceil(50.0 / h_run))
    assert len(calls) == dynamics._P_MAX
    assert walk.matvecs > 0


def test_correlation_point_takes_fewer_matvecs():
    # the correlation benchmark's point: fig2b scaled to N = 24. Every
    # long step of its geometric tail chooses from the ||A^p||_1 estimates
    # (min_p max(d_p, d_p+1) = 3.74 against ||A||_1 = 7.34); the trace
    # took 6961 products when the gaps below 63.4 / ||A||_1 (t < 300)
    # chose from ||A||_1 alone
    N = 24
    p = ModelParams(N, 1, N ** -0.5, 1.0, 2.0 / N)
    ss = steady_state(liouvillian_for(p, 0))
    times = correlation_times(0.02, 50.0, 1500.0, 120)
    trace = g1_trace(p, ss, times)
    assert 0 < trace.matvecs <= 5600
    assert g1_trace(p, ss, times).matvecs == trace.matvecs


@pytest.mark.parametrize("v", [
    [3.0, -3.0, 3.0, 1.0], [-2.0, 2.0], [-0.0, 0.0, -0.0], [-0.0], [0.0],
    [1.0, -np.inf, 2.0], [np.inf, -np.inf], [-np.inf], [-5e-324, 5e-324],
    [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
    list(np.random.default_rng(2).standard_normal(625)),
    list(np.repeat([-1.5, 1.5, 0.25], 300))])
def test_blas_term_maximum_is_the_numpy_maximum_bit_for_bit(v):
    v = np.asarray(v, dtype=np.float64)
    expected = np.abs(v).max()
    got = dynamics._max_abs(v)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    # complex terms keep the modulus: izamax would rank 3 + 3i above 5
    z = np.array([5.0, 3.0 + 3.0j, -1.0j])
    assert dynamics._max_abs(z) == np.abs(z).max() == 5.0


def test_walk_with_nan_terms_raises_naming_the_delay(monkeypatch):
    # a real rotation at rate 800 on a growth e^(800 t): the state
    # overflows between t = 0.75 and t = 1 (800 t passes log(max float) =
    # 709.8), the rotation mixes inf of both signs into NaN, and the later
    # sub-steps of that long step walk NaN terms
    mat = sp.csr_matrix([[800.0, -800.0], [800.0, 800.0]])
    seen, idamax = [], dynamics.idamax

    def recording(v):
        seen.append(bool(np.isnan(v).any()))
        return idamax(v)

    monkeypatch.setattr(dynamics, "idamax", recording)
    times = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    for observe in (None, np.ones(2)):
        seen.clear()
        with pytest.raises(SolverError, match="not finite at delay t = 1$"), \
                np.errstate(over="ignore", invalid="ignore"):
            propagate(mat, [1.0 + 0j, 1.0 + 0j], times, observe=observe)
        assert any(seen)


def test_propagate_grid_rejects_non_finite_times_and_states():
    one = sp.csr_matrix([[1.0]])
    for times in ([0.0, 1.0, np.nan], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            propagate(one, [1.0 + 0j], times)
    with pytest.raises(SolverError, match="t = 1"), \
            np.errstate(over="ignore", invalid="ignore"):
        propagate(sp.csr_matrix([[800.0]]), [1.0 + 0j], [0.0, 0.5, 1.0])
    # ||A||_1 = 0 puts every point in one run: t = 1 is a read point there
    for observe in (None, np.ones(1)):
        with pytest.raises(SolverError, match="t = 1$"), \
                np.errstate(over="ignore", invalid="ignore"):
            propagate(sp.csr_matrix([[800.0]]), [1.0 + 0j],
                      [0.0, 0.5, 1.0, 1.5], observe=observe)


def test_propagate_grid_is_independent_of_global_rng(monkeypatch):
    L = liouvillian_for(ModelParams(6, 1, 0.45, 1.0, 0.25), 0)
    c0 = initial_mixed_state(L.sector).coeffs
    times = np.concatenate([np.linspace(0.0, 2.0, 11),
                            np.geomspace(5.0, 500.0, 6)])
    # the long tail steps need onenormest's random norm estimates, which
    # draw from the global RNG unless guarded (expm_multiply shows it)
    mat, d = dynamics._scaled(L.physical(), L.sector)
    # a draw moves the position in the key, and the key itself only when
    # the position wraps, so both are compared
    before = np.random.get_state()
    spla.expm_multiply(mat * 500.0, c0 * d)
    moved = np.random.get_state()
    assert not (np.array_equal(moved[1], before[1]) and moved[2] == before[2])

    calls = _count_calls(monkeypatch, spla, "onenormest")
    np.random.seed(1)
    first = propagate(L, c0, times).values
    assert calls
    np.random.seed(2)
    state = np.random.get_state()
    second = propagate(L, c0, times).values
    after = np.random.get_state()
    assert np.array_equal(first, second)
    assert after[0] == state[0]
    assert np.array_equal(after[1], state[1])
    assert after[2:] == state[2:]


def test_decoupled_pumping_limit():
    p = ModelParams(3, 1, 0.0, 1.0, 0.7)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    assert expect_sigma_z(ss) == pytest.approx(1.0, abs=1e-10)
    assert expect_photon_number(ss) == pytest.approx(0.0, abs=1e-10)


def test_decoupled_decay_limit():
    p = ModelParams(3, 1, 0.0, 1.0, 0.0, spont_emission=0.4)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    assert expect_sigma_z(ss) == pytest.approx(-1.0, abs=1e-10)
    assert expect_photon_number(ss) == pytest.approx(0.0, abs=1e-10)


def test_steady_state_matches_oracle_at_figure_style_point():
    N = 4
    g = 0.5
    kappa = N * g * g  # kappa = N C gamma
    p = ModelParams(N, 1, g, kappa, 2.0 * kappa / N)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    ref = oracle_expectations(p, oracle_steady_state(p))
    assert expect_sigma_z(ss) == pytest.approx(ref["sz"], abs=1e-8)
    assert expect_spin_spin(ss) == pytest.approx(ref["spsm"], abs=1e-8)
    assert expect_photon_number(ss) == pytest.approx(ref["nb"], abs=1e-8)


def test_detailed_balance_without_single_atom_decay(rng):
    # conservation of excitation flow: N w <1 - sz>/2 = kappa <n>
    for n_atoms in (4, 30):
        p = random_params(rng, n_atoms, 1, with_gamma=False)
        L = liouvillian_for(p, 0)
        ss = steady_state(L, trace_functional(L.sector))
        lhs = p.n_atoms * p.pump * (1.0 - expect_sigma_z(ss)) / 2.0
        rhs = p.cavity_decay * expect_photon_number(ss)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_steady_state_independent_of_initial_state(rng):
    p = random_params(rng, 3, 1)
    L = liouvillian_for(p, 0)
    sector = L.sector
    t = trace_functional(sector)
    ss = steady_state(L, t)
    # completely mixed versus all-atoms-down initial states
    mixed = initial_mixed_state(sector)
    down = np.zeros(len(sector), dtype=complex)
    vac = {(0, 0): 1.0, (1, 1): -1.0}  # |0><0| = 1 - a^+ a at M = 1
    for k in range(p.n_atoms + 1):
        for (pp, qq), wph in vac.items():
            idx = sector.index_of(BasisElement(0, 0, k, pp, qq))
            from math import comb
            down[idx] = (-1.0) ** k * comb(p.n_atoms, k) * wph / 2 ** 0
    down = down / (t @ down)
    s_down = SymmetricState(sector, down)
    assert expect_sigma_z(s_down) == pytest.approx(-1.0)
    assert expect_photon_number(s_down) == pytest.approx(0.0, abs=1e-12)
    horizon = 60.0 / min(p.pump + p.spont_emission, p.cavity_decay)
    for start in (mixed, s_down):
        out = SymmetricState(
            sector, propagate(L, start.coeffs, [horizon]).values[0])
        assert expect_sigma_z(out) == pytest.approx(expect_sigma_z(ss), abs=1e-7)
        assert expect_photon_number(out) == pytest.approx(
            expect_photon_number(ss), abs=1e-7)


def _charge0_sector(n_atoms, g, w):
    return liouvillian_for(ModelParams(n_atoms, 1, g, 1.0, w), 0)


@pytest.mark.parametrize("n_atoms, g, message", [
    (24, 0.3, "charge-0 gap"),        # dark states: 13 zero modes at N = 24
    (40, 0.3, "charge-0 gap"),
    (24, 0.0, "singular"),            # frozen atoms: 169 zero modes
    (2, 0.0, "singular"),             # frozen atoms: 4 zero modes
    (1, 0.0, "singular"),
])
def test_degenerate_sector_is_reported_on_bordered_path(n_atoms, g, message):
    L = _charge0_sector(n_atoms, g, 0.0)
    with pytest.raises(DegenerateSteadyStateError, match=message):
        steady_state(L, trace_functional(L.sector))


def test_small_resolved_gap_is_accepted(monkeypatch):
    gaps = []
    probe = dynamics._charge0_gap

    def spy(lu, row):
        gaps.append(probe(lu, row))
        return gaps[-1]

    monkeypatch.setattr(dynamics, "_charge0_gap", spy)
    L = _charge0_sector(24, 0.3, 1e-6)
    ss = steady_state(L, trace_functional(L.sector))
    mat, _ = dynamics._scaled(L.physical(), L.sector)
    dense_gap = np.sort(np.abs(np.linalg.eigvals(mat.toarray())))[1]
    assert len(gaps) == 1 and gaps[0] == pytest.approx(dense_gap, rel=2e-2)
    assert 1e-6 < gaps[0] < 1e-4
    lhs = 24 * 1e-6 * (1.0 - expect_sigma_z(ss)) / 2.0
    assert lhs == pytest.approx(expect_photon_number(ss), rel=1e-6)


@pytest.mark.parametrize("n_atoms, m, dim", [(1, 1, 6), (4, 2, 59), (24, 1, 650)])
def test_bordered_steady_state_factors_once(monkeypatch, n_atoms, m, dim):
    calls = {"splu": 0, "spsolve": 0, "eig": 0}
    splu, spsolve, eig = spla.splu, spla.spsolve, np.linalg.eig

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spla, "splu", count("splu", splu))
    monkeypatch.setattr(spla, "spsolve", count("spsolve", spsolve))
    monkeypatch.setattr(np.linalg, "eig", count("eig", eig))
    L = liouvillian_for(ModelParams(n_atoms, m, n_atoms ** -0.5, 1.0,
                                    2.0 / n_atoms), 0)
    assert len(L.sector) == dim
    ss = steady_state(L, trace_functional(L.sector))
    assert calls == {"splu": 1, "spsolve": 0, "eig": 0}
    assert 0.0 < expect_photon_number(ss) < 1.0


def test_steady_state_requires_charge_zero():
    p = ModelParams(2, 1, 1.0, 1.0, 0.5)
    L = liouvillian_for(p, -1)
    with pytest.raises(ValueError):
        steady_state(L)


def test_slow_eigenmode_matches_dense_spectrum(rng):
    for n_atoms in (4, 7):
        L = liouvillian_for(random_params(rng, n_atoms, 1), -1)
        mode = slow_eigenmode(L)
        dense = np.linalg.eigvals(L.physical().toarray())
        nearest = dense[np.argsort(np.abs(dense))[:6]]
        slowest = nearest[np.argmax(nearest.real)]
        assert abs(mode.eigenvalue - slowest) <= 1e-10 * np.abs(dense).max()
        assert mode.rate == -2.0 * mode.eigenvalue.real
        assert mode.condition >= 1.0
        assert mode.error_bound == mode.condition * np.finfo(float).eps * mode.norm1
        again = slow_eigenmode(L)
        assert again.eigenvalue == mode.eigenvalue
        assert again.condition == mode.condition
    with pytest.raises(ValueError):
        slow_eigenmode(liouvillian_for(random_params(rng, 4, 1), 0))


def test_slow_eigenmode_raises_on_growing_mode():
    # shifting a decaying sector by +0.1 moves its slowest eigenvalue
    # (-0.093) to Re lambda > 0, an answer no physical generator gives
    L = liouvillian_for(ModelParams(6, 1, 0.45, 1.0, 0.25), -1)
    assert -0.1 < slow_eigenmode(L).eigenvalue.real < 0.0
    grown = Superoperator(L.sector, (L.matrix + 0.1 * sp.identity(
        len(L.sector), format="csr")).tocsr())
    with pytest.raises(PrecisionLossError, match="Re lambda > 0"):
        slow_eigenmode(grown)


def test_slow_eigenmode_raises_within_its_error_bound_of_zero():
    # shifting the slowest eigenvalue (-0.093) to half its first-order
    # error bound below zero leaves no certified sign or rate
    L = liouvillian_for(ModelParams(6, 1, 0.45, 1.0, 0.25), -1)
    mode = slow_eigenmode(L)
    assert mode.error_bound < 1e-12
    shift = -mode.eigenvalue.real - 0.5 * mode.error_bound
    near = Superoperator(L.sector, (L.matrix + shift * sp.identity(
        len(L.sector), format="csr")).tocsr())
    with pytest.raises(PrecisionLossError,
                       match=r"within its error bound .*sector dimension 49"):
        slow_eigenmode(near)


def _expm_multiply_chain(mat, c, times):
    """exp(mat t) c at each t of an increasing grid, one expm_multiply
    call per delay from the previous one."""
    out, t_prev = [], 0.0
    for t in times:
        c = spla.expm_multiply(mat * (t - t_prev), c)
        out.append(c)
        t_prev = t
    return np.asarray(out)


def test_fig2b_point_analytic_tail_matches_expm_multiply():
    # the correlation benchmark's point: fig2b scaled to N = 24
    N = 24
    p = ModelParams(N, 1, N ** -0.5, 1.0, 2.0 / N)
    ss = steady_state(liouvillian_for(p, 0))
    times = correlation_times(0.02, 50.0, 1500.0, 120)
    trace = g1_trace(p, ss, times)
    assert 50.0 < trace.tail_delay < 1500.0
    assert trace.tail_eigenvalue.real < 0.0
    late = times > trace.tail_delay
    assert late.sum() >= 10 and times[late][-1] == 1500.0
    # the same g1 by expm_multiply of the scaled charge -1 matrix
    L = liouvillian_for(p, -1)
    mat, d = dynamics._scaled(L.physical(), L.sector)
    seed = chain_matrix(((1.0, ("a_left",)),), N, 1, 0, -1)
    pairing = _adag_trace_pairing(enumerate_sector(N, 1, -1)) / d
    states = _expm_multiply_chain(mat, (seed @ ss.coeffs) * d,
                                  np.append(trace.tail_delay, times[late]))
    exact = states @ pairing / trace.normalization
    assert abs(exact[0] - trace.values[~late][-1]) <= 1e-12
    assert np.abs(exact[1:] - trace.values[late]).max() <= 1e-12
    # each read point is the one-mode value from the last propagated one
    one_mode = trace.values[~late][-1] * np.exp(
        trace.tail_eigenvalue * (times[late] - trace.tail_delay))
    assert np.abs(trace.values[late] - one_mode).max() <= 1e-15


_RATES = ("coupling", "cavity_decay", "pump", "spont_emission", "dephasing")


@pytest.mark.parametrize("n,m,dn", [(1, 1, 0), (3, 2, 0), (4, 2, -1),
                                    (10, 3, 2), (24, 1, -1), (100, 1, 0)])
def test_scaling_is_the_diagonal_product_bit_for_bit(n, m, dn):
    # the array scaling of ``_scaled`` against its sparse reference
    # diags(d) @ L @ diags(1/d): all rates on, and one part alone
    rng = np.random.default_rng(29)
    p = random_params(rng, n, m)
    for case in (p, ModelParams(n, m, p.coupling, 0.0, 0.0)):
        L = liouvillian_for(case, dn)
        mat, d = dynamics._scaled(L.matrix, L.sector)
        ref = (sp.diags(d) @ L.matrix @ sp.diags(1.0 / d)).tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mat, name), getattr(ref, name)), (
                name, case)
        mat.indices[:] = 0   # the scaled matrix owns its index arrays
        assert not np.array_equal(L.matrix.indices, mat.indices)


def test_sector_generators_are_real_in_the_photon_gauge():
    # g = i^((n_adag + n_a) mod 4) conjugates every sector generator to a
    # real one: all five rates on, and each part alone with the other four
    # rates zero. The stored matrix is that real sum, out of the gauge it
    # is the sum of the complex parts, and its scaling, which propagate
    # walks, is the gauged scaled complex generator bit for bit
    rng = np.random.default_rng(19)
    powers = np.array([1.0, 1.0j, -1.0, -1.0j])
    for n in range(1, 7):
        for m in range(1, 4):
            full = ModelParams(n, m, *rng.uniform(0.2, 1.5, 3),
                               spont_emission=rng.uniform(0.1, 0.5),
                               dephasing=rng.uniform(0.1, 0.5))
            off = dict.fromkeys(_RATES, 0.0)
            cases = [full] + [ModelParams(n, m, **dict(
                off, **{rate: getattr(full, rate)})) for rate in _RATES]
            for dn in range(-2, 3):
                sector = enumerate_sector(n, m, dn)
                parts = {name: chain_matrix.__wrapped__(tuple(chains), n, m,
                                                        dn, dn)
                         for name, chains in _part_terms(n).items()}
                c = sector.contents
                g = powers[(c[:, 3] + c[:, 4]) % 4]
                for p in cases:
                    L = liouvillian_for(p, dn)
                    assert L.matrix.dtype == np.float64
                    ref = sp.csr_matrix(L.matrix.shape, dtype=complex)
                    for name, field in PART_RATES.items():
                        ref = ref + getattr(p, field) * parts[name]
                    assert np.array_equal(L.physical().toarray(),
                                          ref.toarray()), (p, dn)
                    mat, d = dynamics._scaled(L.physical(), sector)
                    gauged = sp.diags(g) @ mat @ sp.diags(g.conj())
                    assert not gauged.imag.toarray().any(), (p, dn)
                    real, d_real = dynamics._scaled(L.matrix, sector)
                    assert np.array_equal(real.toarray(),
                                          gauged.real.toarray()), (p, dn)
                    assert np.array_equal(d_real, d)


def test_gauge_rejects_a_part_left_over_by_the_phase(monkeypatch):
    # an odd entry (one photon power apart) must be imaginary and an even
    # one real: a part with a stray term of either kind raises as it is
    # gauged, once, when it is built
    terms = liouvillian._part_terms
    for name, stray in (("cavity_decay", (1e-3, ("sp_right", "a_right"))),
                        ("pump", (1e-3j, ("sz_left",)))):
        def with_stray(n_atoms):
            out = terms(n_atoms)
            out[name] = out[name] + [stray]
            return out

        monkeypatch.setattr(liouvillian, "_part_terms", with_stray)
        with pytest.raises(AssertionError,
                           match=f"gauged {name} part is not real"):
            liouvillian._unit_parts(3, 2, 0)


def test_superoperator_holds_only_the_real_gauged_matrix():
    # walking the complex generator with the gauge phases would give a
    # wrong answer without any error, so it is refused when built
    L = liouvillian_for(ModelParams(3, 2, 0.7, 1.0, 0.4), 0)
    with pytest.raises(TypeError, match="real gauged matrix"):
        Superoperator(L.sector, L.physical())


def _record_walk_dtypes(monkeypatch):
    """The dtypes of the matrix and of every state a ``_TaylorStepper``
    is given, collected in a set."""
    seen, base = set(), dynamics._TaylorStepper

    class Recording(base):
        def __init__(self, mat):
            seen.add(mat.dtype)
            super().__init__(mat)

        def step(self, v, h):
            seen.add(v.dtype)
            return super().step(v, h)

        def run(self, v, h):
            seen.add(v.dtype)
            return super().run(v, h)

    monkeypatch.setattr(dynamics, "_TaylorStepper", Recording)
    return seen


def test_g1_and_g2_walk_float64_and_match_the_complex_generator(monkeypatch):
    # the correlation benchmark's point: fig2b scaled to N = 24
    N = 24
    p = ModelParams(N, 1, N ** -0.5, 1.0, 2.0 / N)
    ss = steady_state(liouvillian_for(p, 0))
    times = correlation_times(0.02, 50.0, 1500.0, 120)
    seen = _record_walk_dtypes(monkeypatch)
    g1 = g1_trace(p, ss, times)
    g2 = g2_trace(p, ss, times)
    assert seen == {np.dtype(np.float64)}
    # dense points, geometric tail and analytic tail, each reached by
    # expm_multiply of the ungauged complex matrix from the previous one;
    # the largest deviations are 2.6e-15 (g1) and 4.3e-13 (g2, in its
    # analytic tail, whose allowance is 1e-12)
    late = np.flatnonzero(times > g1.tail_delay)
    assert len(late) >= 10
    picks = np.array([1, 37, 1200, 2500, 2540, late[0], late[len(late) // 2],
                      len(times) - 1])
    for trace, dn, seed_kinds, readout in (
            (g1, -1, ("a_left",),
             _adag_trace_pairing(enumerate_sector(N, 1, -1))),
            (g2, 0, ("a_left", "adag_right"),
             number_functional(ss.sector))):
        L = liouvillian_for(p, dn)
        mat, d = dynamics._scaled(L.physical(), L.sector)
        assert mat.dtype == complex
        seed = chain_matrix(((1.0, seed_kinds),), N, 1, 0, dn)
        states = _expm_multiply_chain(mat, (seed @ ss.coeffs) * d,
                                      times[picks])
        exact = states @ (readout / d) / trace.normalization
        scale = np.abs(trace.values).max()
        assert np.abs(trace.values[picks] - exact).max() <= 1e-12 * scale


def test_oracle_traces_walk_float64_and_match_the_complex_generator(
        monkeypatch):
    p = ModelParams(4, 2, 0.7, 1.1, 0.6, spont_emission=0.2, dephasing=0.1)
    times = np.concatenate([np.linspace(0.0, 5.0, 51),
                            np.geomspace(6.0, 400.0, 12)])
    rho = oracle_steady_state(p)
    nb = oracle_expectations(p, rho)["nb"]
    seen = _record_walk_dtypes(monkeypatch)
    g1 = oracle_g1(p, times, rho_ss=rho)
    g2 = oracle_g2(p, times, rho_ss=rho)
    assert seen == {np.dtype(np.float64)}
    L = build_full_liouvillian(p)
    assert L.dtype == complex
    ops = site_operators(4, 2)
    a, n = ops["a"], ops["n"]
    for values, seed, readout, norm in (
            (g1, a @ rho, ops["adag"], nb),
            (g2, a @ rho @ a.conj().T, n, nb ** 2)):
        # largest deviations 4.4e-16 (g1) and 1.7e-13 (g2)
        states = _expm_multiply_chain(L, seed.reshape(-1), times[1:])
        exact = states @ readout.T.reshape(-1) / norm
        if values is g2:
            exact = exact.real
        scale = np.abs(values).max()
        assert np.abs(values[1:] - exact).max() <= 1e-12 * scale


def _slow_pair_generator(rotation):
    """A 6 x 6 generator: a slow pair -0.01 +- i rotation (a damped
    rotation block, or two real modes -0.01 and -0.1 at rotation 0), a
    fast non-normal block, and a weak coupling from the fast block."""
    slow = (np.array([[-0.01, rotation], [-rotation, -0.01]]) if rotation
            else np.diag([-0.01, -0.1]))
    fast = np.array([[-1.0, 0.7, 0.0, 0.0], [0.0, -1.3, 0.4, 0.0],
                     [0.0, 0.0, -2.0, 0.5], [0.0, 0.0, 0.0, -2.6]])
    mat = np.zeros((6, 6))
    mat[:2, :2], mat[2:, 2:] = slow, fast
    mat[:2, 2:] = 0.05
    return sp.csr_matrix(mat)


@pytest.mark.parametrize("rotation", [0.3, 0.0])
def test_slow_complex_pair_never_projects(rotation):
    mat = _slow_pair_generator(rotation)
    rng = np.random.default_rng(3)
    c0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    times = np.concatenate([np.linspace(0.0, 2.0, 21),
                            np.geomspace(5.0, 2000.0, 60)])
    walk = dynamics.propagate(mat, c0, times)
    ref = _expm_multiply_chain(mat, c0, times)
    assert np.abs(walk.values - ref).max() <= 1e-12 * np.abs(ref).max()
    if rotation:
        # two modes of one decay rate beat forever: no one-mode tail
        assert walk.tail_delay is None and walk.tail_eigenvalue is None
    else:
        # the same generator with a real slow pair does turn analytic
        assert walk.tail_delay < 2000.0
        assert walk.tail_eigenvalue == pytest.approx(-0.01, abs=1e-12)


def test_growing_generator_raises_where_it_overflows():
    # Re theta > 0 keeps the walk propagating, so the growing mode
    # e^(0.5 t) overflows and raises at the first delay past
    # log(max float) / 0.5 = 1419.6
    mat = sp.csr_matrix(np.array([[-1.0, 0.3], [0.0, 0.5]]))
    times = np.concatenate([np.linspace(0.0, 2.0, 5),
                            np.geomspace(10.0, 5000.0, 25)])
    first = times[times > np.log(np.finfo(float).max) / 0.5][0]
    with pytest.raises(SolverError, match=f"t = {first:g}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        dynamics.propagate(mat, [1.0 + 0j, 1.0 + 0j], times)


def _workloads_module():
    """perfbench/workloads.py, the benchmark's seeded inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steady_state_out_of_physical_range_raises():
    # N = 150 past the N ~ 140 onset of precision loss: the bordered solve
    # passes its residual and gap checks but returns a negative nb. Its
    # digits are rounding of a matrix with cond_1 ~ 4.5e24 and change with
    # the BLAS thread count, so only the bound and a printed value are pinned
    N = 150
    p = ModelParams(N, 1, coupling_from_kappa_tilde(N, 1.0, 0.25), 1.0,
                    4.0 / N)
    with pytest.raises(PrecisionLossError, match=r"0 <= nb <= 1: nb = -?\d"):
        steady_state(liouvillian_for(p, 0))


@pytest.mark.parametrize("n_atoms", [140, 200])
def test_steady_state_past_the_precision_onset_raises(n_atoms):
    # w_tilde = 1.6, kappa_tilde = 0.25: the bordered solve passes its
    # residual, gap and range gates (at N = 200 on nb = 0.49998, where
    # relaxation gives 0.40083), but one refinement step from its factors
    # moves the state by about 2e-2 (N = 140) and 0.4 (N = 200)
    p = ModelParams(n_atoms, 1, coupling_from_kappa_tilde(n_atoms, 1.0, 0.25),
                    1.0, 1.6 / n_atoms)
    with pytest.raises(PrecisionLossError, match="one refinement step moves"):
        steady_state(liouvillian_for(p, 0))


def test_physical_range_gate_passes_preset_and_benchmark_points(tmp_path):
    # the fig2a-numeric preset (N = 100, 40 pumps) through the CLI
    out = tmp_path / "sweep.csv"
    assert main(["--preset", "fig2a-numeric", "--out", str(out)]) == 0
    table = [line for line in out.read_text().splitlines()
             if not line.startswith("#")]
    assert len(table) == 1 + 40
    # the seed-1 pump-sweep and correlation points of the benchmark
    workloads = _workloads_module()
    for name in ("pump-sweep", "correlation"):
        for one_pass in workloads.make_inputs(name, 1):
            for op in one_pass:
                ss = steady_state(liouvillian_for(op["params"], 0))
                assert 0.0 < expect_photon_number(ss) < 1.0


def test_physical_range_gate_names_each_bound():
    L = liouvillian_for(ModelParams(4, 1, 0.5, 1.0, 0.4), 0)
    ss = steady_state(L)
    sz_row = diagonal_functional(L.sector, (0, 0, 1))
    spsm_row = diagonal_functional(L.sector, (1, 1, 0))
    for row, scale, message in ((sz_row, 4.0 * 1.5, "-1 <= sz <= 1"),
                                (spsm_row, -4.0 * 4 * 3, "spsm >= -")):
        k = np.flatnonzero(row)[0]
        bad = ss.coeffs.copy()
        bad[k] += scale / row[k]
        with pytest.raises(PrecisionLossError, match=message):
            dynamics._check_physical_range(SymmetricState(L.sector, bad))
