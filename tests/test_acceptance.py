"""Acceptance criteria, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion as it completes. The heavy figure-scale artifacts are built
once per module and shared.
"""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.sparse.linalg import expm_multiply

from blocklaser import (ModelParams, derive_scales, enumerate_sector,
                        sector_dimension, build_liouvillian, liouvillian_for,
                        trace_functional, steady_state, correlation_times,
                        effective_rabi, expect_photon_number, expect_sigma_z,
                        expect_spin_spin, fit_linewidth, g1_trace, g2_trace,
                        power_spectrum, closed_form_linewidth,
                        closed_form_photon, cumulant_steady, large_n_linewidth,
                        slow_eigenmode)
from blocklaser.cli import validation_report
from blocklaser.dynamics import _scaled
from blocklaser.model import coupling_from_kappa_tilde, random_params
from blocklaser.liouvillian import chain_matrix
from blocklaser.observables import _adag_trace_pairing, number_functional


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def symmetric_steady(params):
    sector = enumerate_sector(params.n_atoms, params.photon_cutoff, 0)
    return steady_state(build_liouvillian(params, sector),
                        trace_functional(sector))


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def fig2b():
    """N = 100, kappa = N C gamma, w = 2 kappa / N: Mollow-triplet point."""
    N = 100
    p = ModelParams(N, 1, 1.0 / math.sqrt(N), 1.0, 2.0 / N)
    ss = symmetric_steady(p)
    times = correlation_times(dt_dense=0.02, t_dense=50.0, t_max=1500.0,
                              n_tail=120)
    trace = g1_trace(p, ss, times)
    fit = fit_linewidth(trace, window=(150.0, 1500.0))
    freqs = np.linspace(-10.0, 10.0, 4001)
    spec = power_spectrum(trace, freqs=freqs, tail_fit=fit)
    return dict(params=p, steady=ss, trace=trace, fit=fit, spec=spec)


@pytest.fixture(scope="module")
def fig2c():
    """N = 100, kappa = 10 N C gamma, w = 1.05 kappa / N: narrow-peak point."""
    N = 100
    p = ModelParams(N, 1, 1.0 / math.sqrt(10 * N), 1.0, 1.05 / N)
    ss = symmetric_steady(p)
    times = correlation_times(dt_dense=0.05, t_dense=30.0, t_max=6000.0,
                              n_tail=150)
    trace = g1_trace(p, ss, times)
    fit = fit_linewidth(trace, window=(30.0, 4500.0))
    g2 = g2_trace(p, ss, np.arange(0.0, 20.0001, 0.05))
    return dict(params=p, steady=ss, trace=trace, fit=fit, g2=g2)


@pytest.fixture(scope="module")
def convergence_sweeps():
    """Steady-state spin coherence, cumulant vs symmetric numerics, at
    kappa = 10 N C gamma over a pump grid, for N in {20, 50, 100}."""
    wts = [0.3, 0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0]
    data = {}
    for N in (20, 50, 100):
        g = 1.0 / math.sqrt(10 * N)
        rows = []
        for wt in wts:
            p = ModelParams(N, 1, g, 1.0, wt / N)
            exact = expect_spin_spin(symmetric_steady(p))
            cum = cumulant_steady(p).spsm
            rows.append((wt, exact, cum))
        data[N] = rows
    return data


# ---------------------------------------------------------------- criteria

def test_criterion_1_oracle_equivalence():
    worst_obs, worst_trace = 0.0, 0.0
    for n in (1, 2, 3, 4):
        for m in (1, 2):
            rows = validation_report(n, m, seed=1000 + 10 * n + m, draws=50,
                                     trace_points=100)
            worst_obs = max(worst_obs, max(r["d_obs"] for r in rows))
            worst_trace = max(worst_trace,
                              max(max(r["d_g1"], r["d_g2"]) for r in rows))
    ok = worst_obs <= 1e-8 and worst_trace <= 1e-6
    report("criterion 1 (oracle equivalence, 50 draws x 8 systems)", ok,
           f"max observable dev {worst_obs:.2e} (tol 1e-8), "
           f"max trace dev {worst_trace:.2e} (tol 1e-6)")
    assert worst_obs <= 1e-8
    assert worst_trace <= 1e-6


def test_criterion_2_blockaded_superradiance_threshold():
    N = 100000
    g = coupling_from_kappa_tilde(N, 1.0, 0.25)
    wts = np.arange(0.2, 4.0001, 0.05)
    nbs = [cumulant_steady(ModelParams(N, 1, g, 1.0, wt / N)).nb for wt in wts]
    peak_blockaded = float(wts[int(np.argmax(nbs))])

    wts_n = np.geomspace(1.0, 40.0, 60)
    nbs_n = [cumulant_steady(ModelParams(N, 1, g, 1.0, wt / N),
                             blockaded=False).nb for wt in wts_n]
    kt2 = derive_scales(ModelParams(N, 1, g, 1.0, 0.1)).kappa_tilde ** 2
    peak_normal = float(wts_n[int(np.argmax(nbs_n))] * kt2)  # in N C gamma units

    ok1 = 1.4 <= peak_blockaded <= 1.8
    ok2 = 0.4 <= peak_normal <= 0.6
    report("criterion 2 (superradiance thresholds)", ok1 and ok2,
           f"blockaded peak at w = {peak_blockaded:.2f} kappa/N "
           f"(window [1.4, 1.8]); normal peak at w = {peak_normal:.2f} "
           f"N C gamma (window [0.4, 0.6])")
    assert ok1 and ok2


def _sideband(spec, omega_eff, side):
    """Center and half-width of one Mollow sideband by a local
    Lorentzian-plus-sloped-baseline fit around the grid peak."""
    mask = (side * spec.freqs > 0.5 * omega_eff) & \
           (side * spec.freqs < 1.8 * omega_eff)
    fs, vs = spec.freqs[mask], spec.values[mask]
    wpk = fs[int(np.argmax(vs))]
    local = np.abs(fs - wpk) <= 1.5

    def model(w, amp, w0, hw, base, slope):
        return amp * hw ** 2 / ((w - w0) ** 2 + hw ** 2) + base + slope * (w - w0)

    popt, _ = curve_fit(model, fs[local], vs[local],
                        p0=(vs.max() - vs.min(), wpk, 0.8, vs.min(), 0.0),
                        maxfev=20000)
    return popt[1], abs(popt[2])


def test_criterion_3_mollow_triplet(fig2b):
    p = fig2b["params"]
    omega_eff = effective_rabi(p, expect_spin_spin(fig2b["steady"]))
    centers, widths = [], []
    for side in (+1, -1):
        c, hw = _sideband(fig2b["spec"], omega_eff, side)
        centers.append(c)
        widths.append(hw)
    dev = max(abs(abs(c) - omega_eff) / omega_eff for c in centers)
    ok_pos = dev <= 0.10
    ok_width = all(0.5 <= hw <= 2.0 for hw in widths)
    ok_sym = abs(centers[0] + centers[1]) < 0.05 * omega_eff
    report("criterion 3 (Mollow triplet)", ok_pos and ok_width and ok_sym,
           f"sidebands at {centers[0]:+.3f}/{centers[1]:+.3f} vs "
           f"Omega_eff {omega_eff:.3f} (dev {dev * 100:.1f}%, tol 10%); "
           f"half-widths {widths[0]:.2f}/{widths[1]:.2f} kappa "
           f"(window [0.5, 2])")
    assert ok_pos and ok_width and ok_sym


def test_fig2b_spectrum_matches_direct_phase_sum(fig2b):
    # the factored phase against one cos and one sin per (frequency, delay),
    # on every 8th frequency of the band (both ends and w = 0 among them)
    trace, fit, spec = fig2b["trace"], fig2b["fit"], fig2b["spec"]
    t, freqs = trace.times, spec.freqs[::8]
    half = 0.5 * fit.rate
    residual = trace.values - fit.amplitude * np.exp(-half * t)
    q = np.zeros(len(t))   # trapezoid weights
    q[:-1] += 0.5 * np.diff(t)
    q[1:] += 0.5 * np.diff(t)
    phase = np.outer(freqs, t)
    direct = ((fit.amplitude / np.pi) * half / (half ** 2 + freqs ** 2)
              + (np.cos(phase) @ (q * residual.real)
                 - np.sin(phase) @ (q * residual.imag)) / np.pi)
    assert np.abs(spec.values[::8] - direct).max() <= 1e-14 * direct.max()


def test_criterion_4_central_peak_amplitude(fig2c):
    nb = expect_photon_number(fig2c["steady"])
    blockade_factor = 1.0 - 2.0 * nb
    amp = fig2c["fit"].amplitude
    ok_window = 0.28 <= blockade_factor <= 0.33
    dev = abs(amp - blockade_factor) / blockade_factor
    ok_amp = dev <= 0.05
    report("criterion 4a (narrow-peak amplitude)", ok_window and ok_amp,
           f"<1-2n> = {blockade_factor:.4f} (window [0.28, 0.33]); "
           f"fitted amplitude {amp:.4f} (dev {dev * 100:.2f}%, tol 5%)")
    assert ok_window and ok_amp


def test_criterion_4_linewidth_vs_closed_form(fig2c):
    gamma_fit = fig2c["fit"].rate
    gamma_lim = large_n_linewidth(fig2c["params"])
    dev = abs(gamma_fit - gamma_lim) / gamma_lim
    ok = dev <= 0.15
    report("criterion 4b (linewidth vs large-N rate)", ok,
           f"fitted {gamma_fit:.4e} vs large-N rate {gamma_lim:.4e} "
           f"(dev {dev * 100:.1f}%, tol 15%); fit rms "
           f"{fig2c['fit'].log_residual_rms:.1e}")
    # the reference is the exact model's N -> infinity slow rate at the
    # fig2c values wt = 1.05, kt = 0.316, derived in large_n_linewidth; the
    # fitted rate is the exact slow eigenvalue at N = 100
    # (test_fig2c_slow_eigenvalue_is_certified), and the exact rates
    # approach the reference from above as N grows (test_linewidth_n_study),
    # so the remaining gap is the O(1/N) correction at N = 100
    assert ok


@pytest.mark.parametrize("t", [10.0, 25.0, 50.0])
def test_fig2b_g1_matches_per_delay_expm_multiply(fig2b, t):
    # N = 100 propagation against scipy's expm_multiply of the same scaled
    # charge -1 matrix, one call per delay; 1e-8 absolute at |g1| ~ 0.03
    p, ss, trace = fig2b["params"], fig2b["steady"], fig2b["trace"]
    shifted = enumerate_sector(p.n_atoms, p.photon_cutoff, -1)
    seed = chain_matrix(((1.0, ("a_left",)),), p.n_atoms, p.photon_cutoff,
                        0, -1)
    c0 = seed @ ss.coeffs
    L = liouvillian_for(p, -1)
    mat, d = _scaled(L.physical(), L.sector)
    pairing = _adag_trace_pairing(shifted) / d
    exact = pairing @ expm_multiply(t * mat, c0 * d) / trace.normalization
    (k,) = np.flatnonzero(np.isclose(trace.times, t, rtol=0.0, atol=1e-9))
    assert abs(trace.values[k] - exact) <= 1e-8


@pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
def test_fig2c_g2_matches_per_delay_expm_multiply(fig2c, t):
    # N = 100 g2 propagation against scipy's expm_multiply of the same
    # scaled charge-0 matrix, one call per delay; the measured deviations
    # are 1.0e-15, 2.2e-15 and 4.0e-14 at t = 1, 5 and 20 (g2 = 0.49-1.01),
    # so 1e-12 absolute leaves a factor 25
    p, ss, g2 = fig2c["params"], fig2c["steady"], fig2c["g2"]
    seed = chain_matrix(((1.0, ("a_left", "adag_right")),), p.n_atoms,
                        p.photon_cutoff, 0, 0)
    c0 = seed @ ss.coeffs
    L = liouvillian_for(p, 0)
    mat, d = _scaled(L.physical(), L.sector)
    readout = number_functional(ss.sector) / d
    exact = (readout @ expm_multiply(t * mat, c0 * d)).real / g2.normalization
    (k,) = np.flatnonzero(np.isclose(g2.times, t, rtol=0.0, atol=1e-9))
    assert abs(g2.values[k] - exact) <= 1e-12


def _relative_error_bound(mode):
    return mode.error_bound / abs(mode.eigenvalue.real)


def test_fig2c_slow_eigenvalue_is_certified(fig2c):
    mode = slow_eigenmode(liouvillian_for(fig2c["params"], -1))
    rate = fig2c["fit"].rate
    agree = abs(mode.rate - rate) / rate
    bound = _relative_error_bound(mode)
    re_lambda = mode.eigenvalue.real
    ok = agree <= 5e-3 and re_lambda < 0.0 and bound < 0.05
    report("criterion 4b certificate (exact slow eigenvalue)", ok,
           f"shift-invert rate {mode.rate:.4e} vs fitted {rate:.4e} "
           f"(dev {agree * 100:.2f}%, tol 0.5%); condition "
           f"{mode.condition:.1e}, ||L||_1 {mode.norm1:.2f}, error bound "
           f"{bound * 100:.1f}% of the rate (tol 5%); Re lambda "
           f"{re_lambda:.1e}")
    assert agree <= 5e-3
    assert re_lambda < 0.0
    assert bound < 0.05


def test_linewidth_n_study():
    """Exact slow rates at wt = 1.05 close in on the large-N rate."""
    details, certified, shrinking = [], True, True
    for kt in (math.sqrt(0.1), 0.5):
        gaps = []
        for N in (30, 50, 70):
            p = ModelParams(N, 1, coupling_from_kappa_tilde(N, 1.0, kt),
                            1.0, 1.05 / N)
            mode = slow_eigenmode(liouvillian_for(p, -1))
            certified &= bool(mode.eigenvalue.real < 0.0
                              and _relative_error_bound(mode) < 0.05)
            ref = large_n_linewidth(p)
            gaps.append(abs(mode.rate - ref) / ref)
        shrinking &= gaps[0] > gaps[1] > gaps[2]
        details.append(f"kt = {kt:.3f}: " + ", ".join(
            f"{gap * 100:.1f}%" for gap in gaps))
    report("criterion 4b N-study (gap to large-N rate at N = 30, 50, 70)",
           certified and shrinking,
           "; ".join(details) + f"; certified: {certified}")
    assert certified
    assert shrinking


def test_criterion_5_closed_form_checks():
    # exact point evaluation: wt and kt representable exactly
    p = ModelParams(100, 1, 4.0, 100.0, 1.0)
    sc = derive_scales(p)
    assert (sc.w_tilde, sc.kappa_tilde) == (1.0, 0.25)
    exact_ok = closed_form_photon(p) == 0.375

    # minimum of the linewidth over the pump at small blockade parameter
    kt = 0.01
    g = coupling_from_kappa_tilde(10 ** 4, 1.0, kt)
    wts = np.round(np.arange(0.5, 1.5001, 0.01), 12)
    vals = [closed_form_linewidth(ModelParams(10 ** 4, 1, g, 1.0, wt / 10 ** 4))
            for wt in wts]
    argmin_ok = abs(wts[int(np.argmin(vals))] - 1.0) < 1e-9
    p1 = ModelParams(10 ** 4, 1, g, 1.0, 1.0 / 10 ** 4)
    sc1 = derive_scales(p1)
    min_val = closed_form_linewidth(p1)
    value_ok = abs(min_val - 2.0 * sc1.kappa_tilde * sc1.purcell_rate) \
        <= 1e-12 * min_val

    # strong blockade: Gamma = C gamma <1-2n> up to second order in kt
    diffs = {}
    for kt2 in (0.1, 0.05):
        g2 = coupling_from_kappa_tilde(10 ** 6, 1.0, kt2)
        q = ModelParams(10 ** 6, 1, g2, 1.0, 0.5 / 10 ** 6)
        renorm = derive_scales(q).purcell_rate * (1 - 2 * closed_form_photon(q))
        diffs[kt2] = abs(closed_form_linewidth(q) - renorm) / closed_form_linewidth(q)
    first_order_ok = diffs[0.05] < 0.3 * diffs[0.1] and diffs[0.1] < 0.05

    ok = exact_ok and argmin_ok and value_ok and first_order_ok
    report("criterion 5 (closed forms)", ok,
           f"photon(wt=1, kt=1/4) == 0.375: {exact_ok}; argmin at wt=1: "
           f"{argmin_ok}; min value 2 kt C gamma to 1e-12: {value_ok}; "
           f"kt->0 renormalized-linewidth identity second order: "
           f"{diffs[0.1]:.2e} -> {diffs[0.05]:.2e}")
    assert ok


def test_criterion_6_property_suites(rng, fig2c, convergence_sweeps):
    details = []

    # trace conservation, random rates
    worst = 0.0
    for n_atoms in (3, 12, 40):
        p = random_params(rng, n_atoms, 1)
        L = liouvillian_for(p, 0)
        t = trace_functional(L.sector)
        resid = np.abs(t @ L.physical()).max()
        scale = np.abs(t).max() * np.abs(L.matrix.data).max()
        worst = max(worst, resid / scale)
    ok_trace = worst <= 1e-12
    details.append(f"trace residual {worst:.1e} (tol 1e-12)")

    # detailed balance at gamma = gamma_d = 0
    worst_db = 0.0
    for wt in (0.6, 1.5):
        N = 30
        p = ModelParams(N, 1, 1.0 / math.sqrt(10 * N), 1.0, wt / N)
        ss = symmetric_steady(p)
        lhs = N * p.pump * (1.0 - expect_sigma_z(ss)) / 2.0
        rhs = p.cavity_decay * expect_photon_number(ss)
        worst_db = max(worst_db, abs(lhs - rhs) / rhs)
    ok_db = worst_db <= 1e-8
    details.append(f"detailed balance {worst_db:.1e} (tol 1e-8)")

    # correlation endpoints at the figure-scale point
    ok_g1 = abs(fig2c["trace"].values[0] - 1.0) < 1e-12
    ok_g2 = abs(fig2c["g2"].values[0]) < 1e-12
    details.append(f"g1(0)-1 = {abs(fig2c['trace'].values[0] - 1):.1e}, "
                   f"g2(0) = {abs(fig2c['g2'].values[0]):.1e}")

    # spin coherence bound over every steady sweep performed here
    spsm_max = max(max(exact, cum) for rows in convergence_sweeps.values()
                   for _, exact, cum in rows)
    ok_bound = spsm_max <= 0.125 + 1e-6
    details.append(f"max spsm {spsm_max:.6f} (bound 1/8 + 1e-6)")

    # reduced-space size grows as N^2
    ratio = sector_dimension(400, 1, 0) / sector_dimension(200, 1, 0)
    ok_dim = abs(ratio - 4.0) <= 0.8
    details.append(f"dimension ratio {ratio:.3f} (4 +- 20%)")

    ok = ok_trace and ok_db and ok_g1 and ok_g2 and ok_bound and ok_dim
    report("criterion 6 (property suites)", ok, "; ".join(details))
    assert ok


def test_antibunching_recovery_time(fig2c):
    # refilling the blockaded mode takes a pi pulse of the collective
    # drive, so g2 first recovers to 1 near t = pi / Omega_eff
    p = fig2c["params"]
    omega_eff = effective_rabi(p, expect_spin_spin(fig2c["steady"]))
    g2 = fig2c["g2"]
    crossing = g2.times[int(np.argmax(g2.values >= 1.0))]
    expected = math.pi / omega_eff
    assert 0.5 * expected <= crossing <= 2.0 * expected


def test_criterion_7_cumulant_convergence(convergence_sweeps):
    devs = {N: max(abs(exact - cum) for _, exact, cum in rows)
            for N, rows in convergence_sweeps.items()}
    ok = devs[20] > devs[50] > devs[100]
    report("criterion 7 (cumulant-vs-exact convergence)", ok,
           f"max spin-coherence deviation {devs[20]:.4f} (N=20) > "
           f"{devs[50]:.4f} (N=50) > {devs[100]:.4f} (N=100): {ok}")
    assert ok
