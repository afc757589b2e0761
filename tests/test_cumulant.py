import numpy as np
import pytest
from scipy.integrate import solve_ivp

import blocklaser.cumulant as cm
from blocklaser import (ModelParams, derive_scales,
                        liouvillian_for, trace_functional, steady_state,
                        expect_spin_spin, CumulantState, cumulant_jacobian,
                        cumulant_rhs, cumulant_steady, closed_form_linewidth,
                        closed_form_photon, large_n_linewidth)
from blocklaser.cli import PRESETS
from blocklaser.dynamics import SolverError
from blocklaser.model import coupling_from_kappa_tilde


def params_for(n_atoms, w_tilde, kappa_tilde, kappa=1.0, gamma=0.0, gamma_d=0.0):
    g = coupling_from_kappa_tilde(n_atoms, kappa, kappa_tilde)
    return ModelParams(n_atoms, 1, g, kappa, w_tilde * kappa / n_atoms,
                       gamma, gamma_d)


def preset_params(name, indices):
    """Parameter sets of a cumulant sweep preset at the given grid indices."""
    c = PRESETS[name]
    space = np.geomspace if c["w_scale"] == "log" else np.linspace
    wts = space(c["w_min"], c["w_max"], c["w_steps"])
    return [params_for(c["n"], wts[k], c["kappa_tilde"], kappa=c["kappa"])
            for k in indices]


def certified(params, state, blockaded=True):
    tol = 1e-12 * cm._rate_scale(params)
    return cm._certificate_failure(state.as_vector(), params, blockaded, tol) is None


def relaxed_root(params, blockaded):
    """Reference root independent of the cubic: Radau from the weakly
    excited state (all atoms down, empty mode) out to 200 times the slowest
    relaxation time, then the Newton polish."""
    slow = min(r for r in (params.pump + params.spont_emission,
                           params.cavity_decay) if r > 0)
    sol = solve_ivp(lambda t, y: cm._rhs_vec(y, params, blockaded),
                    (0.0, 200.0 / slow), np.array([-1.0, 0.0, 0.0, 0.0, 0.0]),
                    method="Radau",
                    jac=lambda t, y: cm._jac_vec(y, params, blockaded),
                    rtol=1e-10, atol=1e-13)
    assert sol.success, sol.message
    return cm._polish(sol.y[:, -1], params, blockaded)


def random_draw(rng):
    """N = 1-1e5, wt = 0.02-60, kt = 0.03-1.5 (log-uniform), kappa =
    0.1-10, gamma up to w and gamma_d up to 0.3 w."""
    N = int(round(10 ** rng.uniform(0.0, 5.0)))
    wt, kt, kappa = (10 ** rng.uniform(np.log10(lo), np.log10(hi))
                     for lo, hi in ((0.02, 60.0), (0.03, 1.5), (0.1, 10.0)))
    w = wt * kappa / N
    return ModelParams(N, 1, kappa / (N * kt), kappa, w,
                       rng.uniform(0.0, w), rng.uniform(0.0, 0.3 * w))


def test_pumped_fixed_point_is_stationary_without_coupling():
    p = ModelParams(50, 1, 0.0, 1.0, 0.3)
    d = cumulant_rhs(CumulantState(sz=1.0, spsm=0.0, nb=0.0, bdsm=0.0), p)
    assert d.sz == 0.0 and d.spsm == 0.0 and d.nb == 0.0 and d.bdsm == 0.0


def test_closed_form_values_sit_near_the_fixed_point_at_large_n():
    # residual of the equations at the closed-form state vanishes with N
    resid = {}
    for N in (10 ** 4, 10 ** 6):
        p = params_for(N, 1.4, 0.25)
        sc = derive_scales(p)
        nb = closed_form_photon(p)
        sz = 1.0 - 2.0 * nb / sc.w_tilde
        spsm = sz * nb / sc.w_tilde
        v = p.cavity_decay * nb / (p.n_atoms * p.coupling)
        state = CumulantState(sz=sz, spsm=spsm, nb=nb, bdsm=1j * v)
        d = cumulant_rhs(state, p).as_vector()
        resid[N] = np.abs(d).max() / p.cavity_decay
    assert resid[10 ** 6] < resid[10 ** 4]
    assert resid[10 ** 6] < 1e-5


def test_jacobian_matches_finite_differences(rng):
    p = ModelParams(37, 1, 0.21, 1.3, 0.05, 0.02, 0.01)
    for blockaded in (True, False):
        y0 = np.array([0.3, 0.05, 0.2, 0.01, 0.04])
        state = CumulantState.from_vector(y0)
        jac = cumulant_jacobian(state, p, blockaded=blockaded)
        eps = 1e-7
        for j in range(5):
            dy = np.zeros(5)
            dy[j] = eps
            fp = cumulant_rhs(CumulantState.from_vector(y0 + dy), p, blockaded).as_vector()
            fm = cumulant_rhs(CumulantState.from_vector(y0 - dy), p, blockaded).as_vector()
            fd = (fp - fm) / (2 * eps)
            assert np.abs(fd - jac[:, j]).max() < 1e-6 * max(1.0, np.abs(jac).max())


def test_steady_residual_is_tiny():
    p = params_for(1000, 1.3, 0.3)
    st = cumulant_steady(p)
    resid = np.abs(cumulant_rhs(st, p).as_vector()).max()
    scale = max(p.cavity_decay, p.n_atoms * p.coupling)
    assert resid <= 1e-12 * scale
    assert -1.0 <= st.sz <= 1.0
    assert 0.0 <= st.spsm <= 0.25 + 1e-9
    assert 0.0 <= st.nb <= 1.0


def test_steady_needs_some_relaxation():
    with pytest.raises(ValueError):
        cumulant_steady(ModelParams(10, 1, 0.1, 1.0, 0.0, 0.0, 0.0))


def test_steady_agrees_with_closed_form_at_large_n():
    # within O(1/N) across the quoted parameter box
    for N in (10 ** 4, 10 ** 5):
        for wt in (0.2, 1.0, 2.4):
            for kt in (0.05, 0.3, 0.5):
                p = params_for(N, wt, kt)
                st = cumulant_steady(p)
                assert abs(st.nb - closed_form_photon(p)) < 20.0 / N


def test_photon_flux_peak_location():
    # maximum of the closed form at w_tilde = 2/(1 + 4 kt^2)
    kt = 0.25
    wts = np.linspace(0.5, 3.0, 2501)
    nbs = [closed_form_photon(params_for(10 ** 5, wt, kt)) for wt in wts]
    peak = wts[int(np.argmax(nbs))]
    assert peak == pytest.approx(2.0 / (1.0 + 4.0 * kt ** 2), abs=2e-3)


def test_closed_form_photon_values():
    assert closed_form_photon(params_for(100, 1.0, 0.25, kappa=100.0)) == 0.375
    assert closed_form_photon(params_for(100, 1e-12, 0.25)) == pytest.approx(0.0, abs=1e-9)
    # saturation limit: w_tilde = 2 at vanishing blockade parameter
    assert closed_form_photon(params_for(10 ** 6, 2.0, 1e-4)) == pytest.approx(0.5, abs=1e-4)


def test_closed_form_linewidth_values():
    p = params_for(100, 1.0, 0.25, kappa=100.0)
    sc = derive_scales(p)
    assert closed_form_linewidth(p) == pytest.approx(2 * 0.25 * sc.purcell_rate, rel=1e-12)
    p0 = params_for(100, 1e-14, 0.25)
    assert closed_form_linewidth(p0) == pytest.approx(derive_scales(p0).purcell_rate, rel=1e-9)


def test_linewidth_minimum_at_unit_pumping_for_small_blockade():
    kt = 0.01
    wts = np.round(np.arange(0.5, 1.51, 0.01), 10)
    vals = [closed_form_linewidth(params_for(10 ** 4, wt, kt)) for wt in wts]
    assert wts[int(np.argmin(vals))] == pytest.approx(1.0, abs=1e-9)


def test_strong_blockade_linewidth_identity_to_first_order():
    # Gamma -> C gamma <1 - 2n> as kt -> 0 (difference is second order)
    diffs = {}
    for kt in (0.1, 0.05):
        p = params_for(10 ** 6, 0.5, kt)
        gamma5 = closed_form_linewidth(p)
        renorm = derive_scales(p).purcell_rate * (1 - 2 * closed_form_photon(p))
        diffs[kt] = abs(gamma5 - renorm) / gamma5
    assert diffs[0.05] < 0.3 * diffs[0.1]  # quadratic, not linear, in kt


def test_large_n_linewidth_values():
    # wt = 1, kt = 1/4: n = 3/8, so Gamma = C gamma (5/8 - 3/8) / (3/4)
    p = params_for(100, 1.0, 0.25, kappa=100.0)
    cg = derive_scales(p).purcell_rate
    assert large_n_linewidth(p) == pytest.approx(cg / 3.0, rel=1e-12)
    # half the paper's formula as kt -> 0, on both sides of wt = 1
    for wt in (0.5, 1.5):
        q = params_for(10 ** 4, wt, 1e-4)
        assert large_n_linewidth(q) / closed_form_linewidth(q) == \
            pytest.approx(0.5, rel=1e-6)


def test_large_n_linewidth_is_the_phase_diffusion_rate():
    # the docstring's intermediate result, (N w/4 + g^2 N^2 z^2/(4 kappa))
    # over the squared dipole N^2 s, with the mean-field s and z
    for wt, kt in ((1.05, 0.5), (0.5, 0.3), (1.7, 0.2)):
        p = params_for(500, wt, kt, kappa=2.0)
        N, g, kappa, w = p.n_atoms, p.coupling, p.cavity_decay, p.pump
        n = closed_form_photon(p)
        B = 1.0 - 2.0 * n
        z = wt * kt ** 2 / B
        s = n * kt ** 2 / B
        source = N * w / 4.0 + g ** 2 * N ** 2 * z ** 2 / (4.0 * kappa)
        assert large_n_linewidth(p) == pytest.approx(source / (N ** 2 * s),
                                                     rel=1e-12)
        # the mean-field gain condition that makes the phase marginal
        assert g ** 2 * N * z * B == pytest.approx(w * kappa, rel=1e-12)


def test_large_n_linewidth_needs_coherent_emission():
    with pytest.raises(ValueError):
        large_n_linewidth(params_for(100, 4.0, 0.5))   # wt kt^2 = 1
    with pytest.raises(ValueError):
        large_n_linewidth(ModelParams(100, 1, 0.1, 1.0, 0.0))


def test_cumulant_close_to_exact_numerics_midscale():
    N = 30
    p = ModelParams(N, 1, 1.0 / np.sqrt(10 * N), 1.0, 1.0 / N)
    st = cumulant_steady(p)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    assert abs(st.spsm - expect_spin_spin(ss)) < 0.02


def test_anticorrelated_root_is_admissible():
    # below threshold at small N the atoms are anticorrelated: s < 0 with
    # <S^+ S^-> = N (1 + z)/2 + N (N - 1) s still positive
    p = params_for(10, 0.197, 0.037)
    st = cumulant_steady(p)
    assert st.spsm == pytest.approx(-0.049, abs=1e-3)
    assert certified(p, st)
    y = st.as_vector()
    assert cm._admissible(y, n_atoms=10)
    s_min = -(1.0 + st.sz) / (2.0 * 9)
    assert not cm._admissible(np.array([st.sz, s_min - 1e-4, st.nb, 0.0, 0.0]),
                              n_atoms=10)


def test_near_threshold_root_is_polished():
    # fig2a-normal at w_tilde = 15.76, where cond J = 2.5e7: the residual
    # gate alone leaves the state 3e-7 relative off the root
    (p,) = preset_params("fig2a-normal", [63])
    assert derive_scales(p).w_tilde == pytest.approx(15.7635, abs=1e-4)
    st = cumulant_steady(p, blockaded=False)
    y = st.as_vector()
    step = np.linalg.solve(cumulant_jacobian(st, p, blockaded=False),
                           -cumulant_rhs(st, p, blockaded=False).as_vector())
    assert np.abs(step).max() <= 1e-12 * np.abs(y).max()


_RELAXATION_POINTS = (
    ("fig2a-blockaded", True, range(5, 80, 10), 1e-12),
    ("fig2a-normal", False, (0, 10, 20, 30, 40, 50, 63, 75), 1e-8),
)

# relaxed_root at the _RELAXATION_POINTS, keyed by (preset, grid index):
# [sz, spsm, nb, Re bdsm, Im bdsm]. Recorded once, since each takes a
# Radau run of seconds; regenerate with
#   PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests');
#     import test_cumulant; test_cumulant.print_relaxed_roots()"
_RELAXED_ROOTS = {
    ("fig2a-blockaded", 5): [0.026474891172527725, 0.012886985654965268, 0.14602876632412082, 0.0, 0.036507191581030204],
    ("fig2a-blockaded", 15): [0.15449786530927315, 0.06531413746207543, 0.33820085387629073, 0.0, 0.08455021346907268],
    ("fig2a-blockaded", 25): [0.39071621343696195, 0.11902852699722215, 0.3960344612659747, 0.0, 0.09900861531649367],
    ("fig2a-blockaded", 35): [0.5566993619825179, 0.1233925911753877, 0.39897057421573384, 0.0, 0.09974264355393346],
    ("fig2a-blockaded", 45): [0.6599129709923367, 0.11221392085420204, 0.3911000833588127, 0.0, 0.09777502083970317],
    ("fig2a-blockaded", 55): [0.7286213417792325, 0.09886614104153169, 0.3799301215090745, 0.0, 0.09498253037726863],
    ("fig2a-blockaded", 65): [0.7773556755289338, 0.0865369146259444, 0.3673631353772591, 0.0, 0.09184078384431478],
    ("fig2a-blockaded", 75): [0.8136417409705841, 0.07581442916047057, 0.3540806921558905, 0.0, 0.08852017303897262],
    ("fig2a-normal", 0): [0.031239667507242008, 0.01513187534063949, 0.24219008312318951, 0.0, 0.06054752078079738],
    ("fig2a-normal", 10): [0.054032002428802586, 0.025556272571168225, 0.4089805940015156, 0.0, 0.1022451485003789],
    ("fig2a-normal", 20): [0.09344817185657492, 0.04235780551661948, 0.67780558566407, 0.0, 0.1694513964160175],
    ("fig2a-normal", 30): [0.16161284630905146, 0.06774706710846917, 1.0840351611096932, 0.0, 0.2710087902774233],
    ("fig2a-normal", 40): [0.27949353454001885, 0.10068844934517307, 1.611101434996622, 0.0, 0.4027753587491555],
    ("fig2a-normal", 50): [0.48334787287006503, 0.12486135333102427, 1.9978803356776411, 0.0, 0.4994700839194103],
    ("fig2a-normal", 63): [0.9839911068939217, 0.007876304223798277, 0.12617830184345713, 0.0, 0.03154457546086428],
    ("fig2a-normal", 75): [0.9999778118221834, 1.1093842750749225e-05, 0.00033744928256621514, 0.0, 8.436232064155378e-05],
}


def print_relaxed_roots():
    """Print ``_RELAXED_ROOTS`` afresh from ``relaxed_root``."""
    for name, blockaded, indices, _ in _RELAXATION_POINTS:
        for k, p in zip(indices, preset_params(name, indices)):
            y = relaxed_root(p, blockaded)
            print(f'    ("{name}", {k}): [{", ".join(map(repr, map(float, y)))}],')


@pytest.mark.parametrize("name, blockaded, indices, rtol", _RELAXATION_POINTS)
def test_cubic_route_matches_relaxation_route(name, blockaded, indices, rtol):
    for k, p in zip(indices, preset_params(name, indices)):
        y = cumulant_steady(p, blockaded).as_vector()
        relaxed = np.array(_RELAXED_ROOTS[name, k])
        assert np.abs(y - relaxed).max() <= rtol * np.abs(relaxed).max()


def test_root_with_spontaneous_emission_equal_to_pump_is_certified():
    # gamma = w, far from the large-N closed form, which ignores gamma
    N, wt = 10 ** 5, 0.3
    p = params_for(N, wt, 1.1, gamma=wt / N)
    st = cumulant_steady(p)
    assert certified(p, st)
    relaxed = relaxed_root(p, True)
    assert np.abs(st.as_vector() - relaxed).max() <= 1e-12 * np.abs(relaxed).max()


@pytest.mark.parametrize("params, blockaded, expected", [
    # uncoupled pumped atom: z = (w - gamma)/(w + gamma), nothing else
    (ModelParams(50, 1, 0.0, 1.0, 0.3, 0.1, 0.05), True, (0.5, 0.0, 0.0)),
    (ModelParams(50, 1, 0.0, 1.0, 0.3, 0.1, 0.05), False, (0.5, 0.0, 0.0)),
    # lossless blockaded mode: n = (1 + z)/2
    (ModelParams(50, 1, 0.1, 0.0, 0.3, 0.1, 0.05), True, (0.5, 0.0, 0.75)),
    (ModelParams(50, 1, 0.1, 0.0, 0.3), True, (1.0, 0.0, 1.0)),
])
def test_uncoupled_and_lossless_roots(params, blockaded, expected):
    st = cumulant_steady(params, blockaded)
    assert (st.sz, st.spsm, st.nb) == pytest.approx(expected, abs=1e-15)
    assert st.bdsm == 0.0


def test_lossless_normal_mode_has_no_physical_root():
    with pytest.raises(SolverError, match="0 certified .* outside the physical range"):
        cumulant_steady(ModelParams(50, 1, 0.1, 0.0, 0.3), blockaded=False)


def test_certificate_failure_of_a_spurious_root_raises(monkeypatch):
    p = params_for(1000, 1.3, 0.3)
    spurious = [y for y in cm._fixed_points(p, True)
                if not cm._admissible(y, p.n_atoms)]
    assert spurious
    monkeypatch.setattr(cm, "_fixed_points", lambda params, blockaded: spurious[:1])
    with pytest.raises(SolverError, match="outside the physical range"):
        cumulant_steady(p)


def test_two_certified_roots_raise(monkeypatch):
    p = params_for(1000, 1.3, 0.3)
    root = cumulant_steady(p).as_vector()
    monkeypatch.setattr(cm, "_fixed_points",
                        lambda params, blockaded: [root, root * (1 + 1e-9)])
    with pytest.raises(SolverError, match="2 certified") as err:
        cumulant_steady(p)
    assert str(err.value).count("certified CumulantState") == 2


def test_unstable_root_is_refused():
    # a self-pulsing normal-mode point: the only admissible fixed point has
    # a growing oscillation, refused without integrating the limit cycle
    p = params_for(384, 27.2, 0.032)
    roots = [y for y in cm._fixed_points(p, False)
             if cm._admissible(y, p.n_atoms)]
    assert len(roots) == 1
    tol = 1e-12 * cm._rate_scale(p)
    root = cm._polish(roots[0], p, False)
    assert "unstable" in cm._certificate_failure(root, p, False, tol)
    with pytest.raises(SolverError, match="unstable"):
        cumulant_steady(p, blockaded=False)


@pytest.mark.parametrize("blockaded", [True, False])
def test_uncoupled_lossless_mode_is_undetermined(blockaded):
    # g = 0 with kappa = 0: every coefficient of the cubic vanishes
    p = ModelParams(5, 1, 0.0, 0.0, 0.3)
    assert not cm._fixed_points(p, blockaded)
    with pytest.raises(SolverError, match="g = 0 and kappa = 0 leave the "
                                          "mode occupation undetermined"):
        cumulant_steady(p, blockaded=blockaded)


@pytest.mark.parametrize("blockaded, degree", [(True, 3), (False, 2)])
def test_admissible_fixed_points_are_roots(blockaded, degree):
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_draw(rng)
        tol = 1e-12 * cm._rate_scale(p)
        points = cm._fixed_points(p, blockaded)
        assert len(points) <= degree
        for y in points:
            if cm._admissible(y, p.n_atoms):
                # the cubic's roots are fixed points already; the polish
                # only removes rounding
                root = cm._polish(y, p, blockaded)
                assert np.abs(root - y).max() <= 1e-8 * np.abs(root).max(), p
                assert np.abs(cm._rhs_vec(root, p, blockaded)).max() <= tol, p
