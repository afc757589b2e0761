"""The four benchmark workloads: seeded inputs, the calls into blocklaser
and the correctness check of every operation.

Each workload turns the benchmark seed into two input sets at the same
sizes (N, M, grids): set A for the cold pass, set B for the warm pass.
Only public functions of ``blocklaser`` are called, in the order the CLI
handlers call them, and every call goes through ``call(layer, fn, ...)``
so that a traced run can wrap it in a span.

An operation is one sweep point, one trace+fit+spectrum or one validation
draw. ``run_op`` returns the operation's outputs (the numbers compared
against ``reference.json`` at the default seed) and raises ``CheckFailed``
when an output breaks a check that holds for every seed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from blocklaser import (ModelParams, build_liouvillian, closed_form_photon,
                        correlation_times, cumulant_rhs, cumulant_steady,
                        enumerate_sector, expect_photon_number,
                        expect_sigma_z, expect_spin_spin, fit_linewidth,
                        g1_trace, g2_trace, liouvillian_for, power_spectrum,
                        steady_state, trace_functional)
from blocklaser.liouvillian import basis_scaling
from blocklaser.oracle import (oracle_expectations, oracle_g1, oracle_g2,
                               oracle_steady_state)

WORKLOADS = ("pump-sweep", "correlation", "cumulant-sweep", "oracle-validate")

#: steady-state residual tolerance the CLI uses at its default reltol
STEADY_TOL = 1e-10

# pump-sweep: the fig2a-numeric preset at one process's scale
SWEEP_N = 100
SWEEP_KAPPA_TILDE = 0.25
SWEEP_W_RANGE = (0.05, 4.0)           # w_tilde = w N / kappa
SWEEP_POINTS = 4

# correlation: the fig2b point scaled to N = 24, the smallest N whose
# charge-0 sector (dim 650) still takes the bordered sparse steady solve
CORR_N = 24
CORR_W_TILDE = (1.9, 2.1)             # seeded pump near 2 kappa / N
CORR_GRID = dict(dt_dense=0.02, t_dense=50.0, t_max=1500.0, n_tail=120)
CORR_FIT_WINDOW = (150.0, 1500.0)
CORR_FREQS = (-10.0, 10.0, 4001)

# cumulant-sweep: the fig2a-blockaded and fig2a-normal presets
CUM_N = 100000
CUM_KAPPA_TILDE = 0.25
CUM_BLOCKADED_W_RANGE = (0.05, 4.0)
CUM_BLOCKADED_POINTS = 4
CUM_NORMAL_W_RANGE = (0.5, 40.0)      # log-spaced like the preset
CUM_NORMAL_POINTS = 2

# oracle-validate: `blocklaser validate` at N = 4, M = 2
ORACLE_N, ORACLE_M = 4, 2
ORACLE_DRAWS = 4
#: (g, kappa, w, gamma, gamma_d) ranges of the `blocklaser validate` draws
VALIDATE_RANGES = ((0.2, 1.5), (0.3, 2.0), (0.05, 1.5), (0.0, 0.5), (0.0, 0.5))
ORACLE_TRACE_POINTS = 100

#: largest seeded move of a sweep point, as a share of its bin width
PUMP_JITTER = 0.05

# checks that hold for every seed
G1_ZERO_TOL = 1e-10
SPECTRUM_AREA_TOL = 1e-2
CUMULANT_CLOSED_FORM_RTOL = 1e-3
CUMULANT_RESIDUAL_TOL = 1e-9          # in units of the largest rate
ORACLE_OBS_TOL = 1e-8                 # the `validate` defaults
ORACLE_TRACE_TOL = 1e-6
RANGE_SLACK = 1e-9


class CheckFailed(Exception):
    """An operation returned an output that breaks a correctness check."""


Call = Callable[..., object]


def _spread(rng: np.random.Generator, lo: float, hi: float, k: int,
            log: bool = False) -> List[float]:
    """Centres of k equal bins of [lo, hi], each moved by a seeded offset of
    up to PUMP_JITTER of a bin width.

    The points cover the whole range for every seed, and the cost of a
    pass varies little from seed to seed even where the cost per point
    depends steeply on the pump (the cumulant relaxation at low pump).
    """
    if log:
        return [math.exp(v) for v in _spread(rng, math.log(lo), math.log(hi), k)]
    width = (hi - lo) / k
    centres = lo + width * (np.arange(k) + 0.5)
    offsets = rng.uniform(-PUMP_JITTER, PUMP_JITTER, k) * width
    return [float(v) for v in centres + offsets]


def _latin_square(rng: np.random.Generator, ranges, k: int) -> List[tuple]:
    """k draws over the given ranges on a fixed cyclic Latin square: rate j
    of draw i sits in bin (i + j) mod k of its range, placed as ``_spread``
    places sweep points.

    Each rate still covers its whole range in every pass, and the pairing
    of rates, which sets a draw's cost (small kappa means long traces, a
    draw takes 0.6 to 1.4 s), is the same for every seed, so the pass time
    does not swing with the seed.
    """
    columns = [_spread(rng, lo, hi, k) for lo, hi in ranges]
    return [tuple(c[(i + j) % k] for j, c in enumerate(columns))
            for i in range(k)]


def _params(n: int, g: float, w_tilde: float) -> ModelParams:
    """M = 1 and kappa = 1, the unit of every rate; w_tilde = w N / kappa."""
    return ModelParams(n_atoms=n, photon_cutoff=1, coupling=g,
                       cavity_decay=1.0, pump=w_tilde / n)


def make_inputs(workload: str, seed: int) -> List[List[dict]]:
    """Operations of the cold pass (set A) and the warm pass (set B)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [_one_pass(workload, rng) for _ in ("A", "B")]


def _one_pass(workload: str, rng: np.random.Generator) -> List[dict]:
    if workload == "pump-sweep":
        g = 1.0 / (SWEEP_N * SWEEP_KAPPA_TILDE)
        return [{"params": _params(SWEEP_N, g, wt)}
                for wt in _spread(rng, *SWEEP_W_RANGE, SWEEP_POINTS)]
    if workload == "correlation":
        g = 1.0 / math.sqrt(CORR_N)           # kappa = N C gamma
        wt = float(rng.uniform(*CORR_W_TILDE))
        lo, hi, k = CORR_FREQS
        return [{"params": _params(CORR_N, g, wt),
                 "times": correlation_times(**CORR_GRID),
                 "freqs": np.linspace(lo, hi, k)}]
    if workload == "cumulant-sweep":
        g = 1.0 / (CUM_N * CUM_KAPPA_TILDE)
        blockaded = _spread(rng, *CUM_BLOCKADED_W_RANGE, CUM_BLOCKADED_POINTS)
        normal = _spread(rng, *CUM_NORMAL_W_RANGE, CUM_NORMAL_POINTS, log=True)
        return ([{"params": _params(CUM_N, g, wt), "blockaded": True}
                 for wt in blockaded]
                + [{"params": _params(CUM_N, g, wt), "blockaded": False}
                   for wt in normal])
    ops = []
    for g, kappa, w, gamma, gamma_d in _latin_square(rng, VALIDATE_RANGES,
                                                        ORACLE_DRAWS):
        params = ModelParams(n_atoms=ORACLE_N, photon_cutoff=ORACLE_M,
                             coupling=g, cavity_decay=kappa, pump=w,
                             spont_emission=gamma, dephasing=gamma_d)
        times = np.linspace(0.0, 5.0 / kappa, ORACLE_TRACE_POINTS)
        ops.append({"params": params, "times": times})
    return ops


def _expectations(ss) -> Dict[str, float]:
    return {"sz": float(expect_sigma_z(ss)), "spsm": float(expect_spin_spin(ss)),
            "nb": float(expect_photon_number(ss))}


def _steady(call: Call, params: ModelParams, stats: Dict):
    """enumerate_sector -> build_liouvillian -> steady_state -> expect_*."""
    N, M = params.n_atoms, params.photon_cutoff
    sector = call("symbasis.enumerate_sector", enumerate_sector, N, M, 0)
    L = call("liouvillian.build_liouvillian", build_liouvillian, params, sector)
    call("liouvillian.basis_scaling", basis_scaling, N, M, 0)
    ss = call("dynamics.steady_state", steady_state, L,
              trace_functional(sector), tol=STEADY_TOL)
    stats["symbasis.sector_dim.charge0"] = len(sector)
    stats["liouvillian.nnz.charge0"] = L.matrix.nnz
    return ss, call("observables.expect", _expectations, ss)


def _g1(call: Call, params: ModelParams, ss, times: np.ndarray, stats: Dict):
    dense = _dense_points(times)
    _add(stats, "observables.g1_trace.points_dense", dense)
    _add(stats, "observables.g1_trace.points_tail", len(times) - dense)
    return call("observables.g1_trace", g1_trace, params, ss, times)


def _check_ranges(obs: Dict[str, float], cutoff: int) -> None:
    s = RANGE_SLACK
    if not -1 - s <= obs["sz"] <= 1 + s:
        raise CheckFailed(f"sz = {obs['sz']!r} outside [-1, 1]")
    if not -s <= obs["spsm"] <= 0.25 + s:
        raise CheckFailed(f"spsm = {obs['spsm']!r} outside [0, 0.25]")
    if not -s <= obs["nb"] <= cutoff + s:
        raise CheckFailed(f"nb = {obs['nb']!r} outside [0, {cutoff}]")


def run_op(workload: str, op: dict, call: Call, stats: Dict) -> Dict[str, float]:
    """Run one operation; return its reference outputs or raise CheckFailed.

    ``stats`` collects the per-layer counts that only the benchmark can
    see from outside the program (sector sizes, grid points, bytes).
    """
    params = op["params"]
    if workload == "pump-sweep":
        _, obs = _steady(call, params, stats)
        _check_ranges(obs, params.photon_cutoff)
        return obs
    if workload == "correlation":
        return _correlation(op, call, stats)
    if workload == "cumulant-sweep":
        return _cumulant(op, call)
    return _oracle(op, call, stats)


def _correlation(op: dict, call: Call, stats: Dict) -> Dict[str, float]:
    params, times, freqs = op["params"], op["times"], op["freqs"]
    N, M = params.n_atoms, params.photon_cutoff
    ss, obs = _steady(call, params, stats)
    _check_ranges(obs, M)
    shifted = call("symbasis.enumerate_sector", enumerate_sector, N, M, -1)
    L1 = call("liouvillian.liouvillian_for", liouvillian_for, params, -1)
    call("liouvillian.basis_scaling", basis_scaling, N, M, -1)
    trace = _g1(call, params, ss, times, stats)
    fit = call("observables.fit_linewidth", fit_linewidth, trace, CORR_FIT_WINDOW)
    spec = call("observables.power_spectrum", power_spectrum, trace,
                freqs=freqs, tail_fit=fit)

    stats.update({"symbasis.sector_dim.charge_m1": len(shifted),
                  "liouvillian.nnz.charge_m1": L1.matrix.nnz})
    stats["observables.fit_linewidth.rms"] = max(
        stats.get("observables.fit_linewidth.rms", 0.0), fit.log_residual_rms)
    # the (freqs x times) complex phase matrix power_spectrum evaluates
    _add(stats, "observables.power_spectrum.phase_bytes_computed",
         16 * len(freqs) * len(times))

    g1 = trace.values
    if abs(g1[0] - 1.0) > G1_ZERO_TOL:
        raise CheckFailed(f"g1(0) = {g1[0]!r}")
    if np.abs(g1).max() > 1.0 + G1_ZERO_TOL:
        raise CheckFailed(f"max |g1| = {np.abs(g1).max()!r} > 1")
    area = float(np.trapezoid(spec.values, spec.freqs))
    if abs(area - 1.0) > SPECTRUM_AREA_TOL:
        raise CheckFailed(f"spectrum area {area!r} not within "
                          f"{SPECTRUM_AREA_TOL} of 1")
    return dict(obs, fit_rate=fit.rate, fit_amplitude=fit.amplitude)


def _add(stats: Dict, key: str, value: int) -> None:
    stats[key] = stats.get(key, 0) + value


def _dense_points(times: np.ndarray) -> int:
    """Length of the uniform run that starts the delay grid."""
    steps = np.diff(times)
    uneven = np.nonzero(np.abs(steps - steps[0]) > 1e-9 * steps[0])[0]
    return len(times) if len(uneven) == 0 else int(uneven[0]) + 1


def _cumulant(op: dict, call: Call) -> Dict[str, float]:
    params, blockaded = op["params"], op["blockaded"]
    cu = call("cumulant.cumulant_steady", cumulant_steady, params,
              blockaded=blockaded)
    rate = max(params.cavity_decay,
               params.pump + params.spont_emission + params.dephasing,
               params.n_atoms * params.coupling)
    rhs = cumulant_rhs(cu, params, blockaded=blockaded)
    resid = max(abs(rhs.sz), abs(rhs.spsm), abs(rhs.nb), abs(rhs.bdsm))
    if resid > CUMULANT_RESIDUAL_TOL * rate:
        raise CheckFailed(f"cumulant residual {resid:.3e} above "
                          f"{CUMULANT_RESIDUAL_TOL:.0e} x largest rate {rate:.3e}")
    obs = {"sz": cu.sz, "spsm": cu.spsm, "nb": cu.nb}
    if blockaded:
        _check_ranges(obs, params.photon_cutoff)
        closed = closed_form_photon(params)
        if abs(cu.nb - closed) > CUMULANT_CLOSED_FORM_RTOL * abs(closed):
            raise CheckFailed(f"blockaded nb {cu.nb!r} vs closed form {closed!r}")
    elif not (-1 - RANGE_SLACK <= cu.sz <= 1 + RANGE_SLACK and cu.nb >= 0):
        raise CheckFailed(f"normal-cavity point outside physical range: {obs}")
    return {"nb": cu.nb}


def _oracle(op: dict, call: Call, stats: Dict) -> Dict[str, float]:
    """One draw of `blocklaser validate`: sector route against the oracle."""
    params, times = op["params"], op["times"]
    ss, obs = _steady(call, params, stats)
    g1 = _g1(call, params, ss, times, stats)
    g2 = call("observables.g2_trace", g2_trace, params, ss, times)
    rho = call("oracle.oracle_steady_state", oracle_steady_state, params)
    ref = call("oracle.oracle_expectations", oracle_expectations, params, rho)
    o_g1 = call("oracle.oracle_g1", oracle_g1, params, times, rho_ss=rho)
    o_g2 = call("oracle.oracle_g2", oracle_g2, params, times, rho_ss=rho)

    d_obs = max(abs(obs[k] - ref[k]) / (1 + abs(ref[k])) for k in ("sz", "nb", "spsm"))
    d_trace = max(np.abs(g1.values - o_g1).max(), np.abs(g2.values - o_g2).max())
    if d_obs > ORACLE_OBS_TOL or d_trace > ORACLE_TRACE_TOL:
        raise CheckFailed(f"oracle deviation: observables {d_obs:.3e} "
                          f"(tol {ORACLE_OBS_TOL}), traces {d_trace:.3e} "
                          f"(tol {ORACLE_TRACE_TOL})")
    return obs
