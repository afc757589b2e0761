import warnings

import numpy as np
import pytest

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


def quiet_steady(params, blockaded=True):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cumulant_steady(params, blockaded=blockaded)


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


@pytest.fixture
def relax_calls(monkeypatch):
    """Record every entry into the Radau relaxation fallback."""
    calls = []
    relax = cm._relax

    def spy(params, blockaded):
        calls.append(params)
        return relax(params, blockaded)

    monkeypatch.setattr(cm, "_relax", spy)
    return calls


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
    st = quiet_steady(p)
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
                st = quiet_steady(p)
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
    st = quiet_steady(p)
    L = liouvillian_for(p, 0)
    ss = steady_state(L, trace_functional(L.sector))
    assert abs(st.spsm - expect_spin_spin(ss)) < 0.02


def test_anticorrelated_root_is_admissible(relax_calls):
    # below threshold at small N the atoms are anticorrelated: s < 0 with
    # <S^+ S^-> = N (1 + z)/2 + N (N - 1) s still positive
    p = params_for(10, 0.197, 0.037)
    st = quiet_steady(p)
    assert st.spsm == pytest.approx(-0.049, abs=1e-3)
    assert relax_calls == []
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
    st = quiet_steady(p, blockaded=False)
    y = st.as_vector()
    step = np.linalg.solve(cumulant_jacobian(st, p, blockaded=False),
                           -cumulant_rhs(st, p, blockaded=False).as_vector())
    assert np.abs(step).max() <= 1e-12 * np.abs(y).max()


@pytest.mark.parametrize("name, blockaded, indices, rtol", [
    ("fig2a-blockaded", True, range(5, 80, 10), 1e-12),
    ("fig2a-normal", False, (0, 10, 20, 30, 40, 50, 63, 75), 1e-8),
])
def test_closed_form_route_matches_relaxation_route(relax_calls, name, blockaded,
                                                    indices, rtol):
    for p in preset_params(name, indices):
        y = quiet_steady(p, blockaded).as_vector()
        assert relax_calls == []
        tol = 1e-12 * cm._rate_scale(p)
        relaxed = cm._newton(cm._relax(p, blockaded), p, blockaded, tol)
        relax_calls.clear()
        assert np.abs(y - relaxed).max() <= rtol * np.abs(relaxed).max()


def test_fallback_relaxes_where_the_closed_form_start_fails(relax_calls):
    # gamma = w: the closed form (which ignores gamma) leads Newton astray
    N, wt = 10 ** 5, 0.3
    p = params_for(N, wt, 1.1, gamma=wt / N)
    st = quiet_steady(p)
    assert len(relax_calls) == 1
    assert certified(p, st)


def test_certificate_failure_of_the_relaxed_root_raises(monkeypatch):
    # both routes land on the inverted spurious root with n < 0
    inverted = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    monkeypatch.setattr(cm, "_closed_form_start", lambda params, blockaded: inverted)
    monkeypatch.setattr(cm, "_relax", lambda params, blockaded: inverted)
    with pytest.raises(SolverError, match="outside the physical range"):
        cumulant_steady(params_for(1000, 1.3, 0.3))


def test_unstable_root_is_refused(monkeypatch):
    # a self-pulsing normal-mode point: the only admissible fixed point has
    # a growing oscillation (Radau circles a limit cycle, which takes a
    # minute to integrate, so the relaxation here returns a point near it)
    p = params_for(384, 27.2, 0.032)
    tol = 1e-12 * cm._rate_scale(p)
    root = cm._newton(cm._closed_form_start(p, False), p, False, tol)
    assert cm._admissible(root, n_atoms=p.n_atoms)
    assert "unstable" in cm._certificate_failure(root, p, False, tol)
    monkeypatch.setattr(cm, "_relax", lambda params, blockaded: root * (1 + 1e-3))
    with pytest.raises(SolverError, match="unstable"):
        cumulant_steady(p, blockaded=False)
