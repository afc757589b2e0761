"""Command-line frontend: presets, sweeps, traces, spectra and validation.

Commands
--------
steady     observables of one steady-state point (symmetric numerics)
sweep      pump sweep of steady-state observables (symmetric or cumulant)
g1 / g2    two-time correlation traces of the output mode
spectrum   emission spectrum with narrow-peak/broad-structure separation
cumulant   cumulant fixed point and closed forms for one parameter point
validate   cross-check the symmetric solver against the brute-force
           reference at small N and exit nonzero on disagreement

Option resolution order: built-in defaults, then ``--preset``, then the
``--config`` YAML file, then explicit flags. ``OPTIONS`` declares each
key once (type or choices, default, domain, help); the flags and
``DEFAULTS`` are derived from it, and the merged configuration is checked
against it before any command runs, so a preset or file value of the
wrong type, choice or domain is a configuration error like a bad flag.
The typed value of every key the command reads (see ``READS``) is echoed
into its output header, so outputs are reproducible and bit-identical
across runs of the same build.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .cumulant import (closed_form_linewidth, closed_form_photon,
                       cumulant_steady)
from .dynamics import SolverError, steady_state
from .liouvillian import liouvillian_for
from .model import (ModelParams, coupling_from_kappa_tilde, random_params,
                    validate)
from .observables import (PoorFitError, correlation_times, effective_rabi,
                          expect_photon_number, expect_sigma_z,
                          expect_spin_spin, fit_linewidth, g1_trace, g2_trace,
                          power_spectrum)
from .oracle import (DEFAULT_HILBERT_CAP, hilbert_dim, oracle_expectations,
                     oracle_g1, oracle_g2, oracle_steady_state)


class ConfigError(ValueError):
    pass


class ValidationFailure(RuntimeError):
    pass


COMMANDS = ("steady", "sweep", "g1", "g2", "spectrum", "cumulant", "validate")

# domains: the phrase a rejection names and the test a value must pass
_POSITIVE = ("positive and finite", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = ("non-negative and finite",
                 lambda v: math.isfinite(v) and v >= 0)
_FINITE = ("finite", math.isfinite)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
_NATURAL = ("non-negative", lambda v: v >= 0)

#: every config key: type (or tuple of choices), default, domain, help;
#: a default of None makes the key optional (null allowed)
OPTIONS: Dict[str, tuple] = {
    "n": (int, 10, _AT_LEAST_1, "number of atoms N"),
    "m": (int, 1, _AT_LEAST_1, "photon cutoff M (1 = blockaded)"),
    "g": (float, None, None, "atom-cavity coupling g"),
    "kappa": (float, 1.0, None, "cavity decay rate kappa"),
    "kappa_tilde": (float, None, None,
                    "set g through kappa/(N g); conflicts with --g"),
    "w": (float, 0.5, None, "pump rate (see --w-unit)"),
    "w_unit": (("rate", "kappa-over-n", "cgamma", "ncgamma"), "rate", None,
               "unit of --w/--w-min/--w-max: absolute rate, kappa/N, "
               "g^2/kappa or N g^2/kappa"),
    "gamma": (float, 0.0, None, "spontaneous emission rate"),
    "gamma_d": (float, 0.0, None, "dephasing rate"),
    "engine": (("symmetric", "cumulant", "cumulant-normal"), "symmetric", None,
               "steady-state backend for steady/sweep/cumulant"),
    "w_min": (float, None, _FINITE, "sweep: first pump value"),
    "w_max": (float, None, _FINITE, "sweep: last pump value"),
    "w_steps": (int, 20, _AT_LEAST_1, "sweep: number of pump values"),
    "w_scale": (("linear", "log"), "linear", None, "sweep: pump spacing"),
    "dt": (float, 0.05, _POSITIVE, "dense time-grid spacing"),
    "t_dense": (float, 30.0, _NON_NEGATIVE, "end of the dense time grid"),
    "t_max": (float, None, _FINITE, "end of the (geometric) tail grid"),
    "n_tail": (int, 0, _NATURAL, "tail grid points"),
    "fit_t_min": (float, None, _FINITE, "start of the tail-fit window"),
    "fit_t_max": (float, None, _FINITE, "end of the tail-fit window"),
    "omega_max": (float, None, _POSITIVE,
                  "spectrum half-band (default pi/(4 dt))"),
    "omega_points": (int, 2001, _AT_LEAST_1, "spectrum frequency count"),
    "out": (str, None, None, "output file (default stdout)"),
    "format": (("csv", "structured"), "csv", None,
               "csv with '#' metadata header, or a JSON document"),
    "seed": (int, 1, _NATURAL, "seed for randomized validation"),
    "draws": (int, 5, _AT_LEAST_1, "validate: random parameter draws"),
    "trace_points": (int, 100, _AT_LEAST_1,
                     "validate: points per correlation trace"),
    "tol_obs": (float, 1e-8, _NON_NEGATIVE, "validate: observable tolerance"),
    "tol_trace": (float, 1e-6, _NON_NEGATIVE, "validate: trace tolerance"),
}

DEFAULTS: Dict = {key: option[1] for key, option in OPTIONS.items()}

# parameter sets of the bundled reference figures; kappa is the rate unit
PRESETS: Dict[str, Dict] = {
    # pump sweep of the blockaded-cavity fixed point, large-N cumulant
    "fig2a-blockaded": {
        "command": "sweep", "engine": "cumulant",
        "n": 100000, "m": 1, "kappa": 1.0, "kappa_tilde": 0.25,
        "w_min": 0.05, "w_max": 4.0, "w_steps": 80, "w_scale": "linear",
        "w_unit": "kappa-over-n",
    },
    # same sweep for a normal bosonic mode (peak near w = N C gamma / 2)
    "fig2a-normal": {
        "command": "sweep", "engine": "cumulant-normal",
        "n": 100000, "m": 1, "kappa": 1.0, "kappa_tilde": 0.25,
        "w_min": 0.5, "w_max": 40.0, "w_steps": 81, "w_scale": "log",
        "w_unit": "kappa-over-n",
    },
    # desk-scale symmetric numerics for the same blockaded sweep
    "fig2a-numeric": {
        "command": "sweep", "engine": "symmetric",
        "n": 100, "m": 1, "kappa": 1.0, "kappa_tilde": 0.25,
        "w_min": 0.05, "w_max": 4.0, "w_steps": 40, "w_scale": "linear",
        "w_unit": "kappa-over-n",
    },
    # emission spectrum at kappa = N C gamma, w = 2 kappa / N (Mollow triplet)
    "fig2b": {
        "command": "spectrum", "engine": "symmetric",
        "n": 100, "m": 1, "kappa": 1.0, "g": 0.1,
        "w": 2.0, "w_unit": "kappa-over-n",
        "dt": 0.02, "t_dense": 50.0, "t_max": 1500.0, "n_tail": 120,
        "fit_t_min": 150.0, "fit_t_max": 1500.0,
        "omega_max": 10.0, "omega_points": 4001,
    },
    # correlation traces at kappa = 10 N C gamma, w = 1.05 kappa / N
    "fig2c": {
        "command": "g1", "engine": "symmetric",
        "n": 100, "m": 1, "kappa": 1.0, "g": 10.0 ** -1.5,
        "w": 1.05, "w_unit": "kappa-over-n",
        "dt": 0.05, "t_dense": 30.0, "t_max": 6000.0, "n_tail": 150,
        "fit_t_min": 30.0, "fit_t_max": 4500.0,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blocklaser",
        description="steady-state superradiance with a photon-blockaded cavity")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="action; may also come from --preset or --config")
    p.add_argument("--config", metavar="PATH", help="YAML key/value config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named figure parameter set")
    for key, (kind, _, _, text) in OPTIONS.items():
        typing = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=text,
                       **typing)
    p.add_argument("--version", action="version", version=f"blocklaser {__version__}")
    return p


_NOUNS = {int: "an integer", float: "a number", str: "a string"}
# what each type accepts: a string wherever the flag's parser would take it
# (YAML reads 1e-3 as one), never a bool, never a float for an int
_ACCEPTS = {int: (str, int), float: (str, int, float), str: (str,)}


def _checked(key: str, value):
    """``value`` of config key ``key`` as its table type, or ConfigError
    naming the key and the value if the type, choices or domain reject it."""
    kind, default, domain, _ = OPTIONS[key]
    if value is None and default is None:
        return None
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, "
                              f"got {value!r}")
        return value
    typed = None
    if isinstance(value, _ACCEPTS[kind]) and not isinstance(value, bool):
        try:
            typed = kind(value)
        except (ValueError, OverflowError):
            pass
    if typed is None:
        raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {value!r}")
    if domain is not None and not domain[1](typed):
        raise ConfigError(f"{key} must be {domain[0]}, got {typed!r}")
    return typed


def _load_config_file(path: str) -> Dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must be a mapping")
    cfg = {}
    for key, value in data.items():
        key = str(key).replace("-", "_")
        if isinstance(value, dict):
            raise ConfigError(f"config key {key!r} holds a mapping; "
                              "keys are long option names with scalar values")
        cfg[key] = value
    return cfg


def resolve_config(argv: Sequence[str]) -> Dict:
    """Merge defaults, preset, config file and explicit flags, and check
    every key's type, choices and domain against ``OPTIONS``."""
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    cfg = dict(DEFAULTS)
    cfg["command"] = None
    preset_name = args.get("preset")
    file_cfg = _load_config_file(args["config"]) if args.get("config") else {}
    if preset_name is None and "preset" in file_cfg:
        preset_name = file_cfg["preset"]
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r}")
        cfg.update(PRESETS[preset_name])
    for key, value in file_cfg.items():
        if key == "preset":
            continue
        if key not in cfg and key != "command":
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    for key, value in args.items():
        if key in ("config", "preset"):
            continue
        if value is not None:
            cfg[key] = value
    cfg["preset"] = preset_name
    if cfg.get("command") not in COMMANDS:
        raise ConfigError("no command given (positional argument, preset or config)")
    for key in OPTIONS:
        cfg[key] = _checked(key, cfg[key])
    return cfg


def _params_from_config(cfg: Dict, w_override: Optional[float] = None) -> ModelParams:
    n, kappa, g = cfg["n"], cfg["kappa"], cfg.get("g")
    if cfg.get("kappa_tilde") is not None:
        if g is not None:
            raise ConfigError("give either g or kappa_tilde, not both")
        try:
            g = coupling_from_kappa_tilde(n, kappa, cfg["kappa_tilde"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if g is None:
        raise ConfigError("coupling g is required (or kappa_tilde)")
    w_raw = cfg["w"] if w_override is None else float(w_override)
    w = _convert_pump(w_raw, cfg["w_unit"], n, g, kappa)
    try:
        return validate(ModelParams(
            n_atoms=n, photon_cutoff=cfg["m"], coupling=g, cavity_decay=kappa,
            pump=w, spont_emission=cfg["gamma"], dephasing=cfg["gamma_d"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _convert_pump(value: float, unit: str, n: int, g: float, kappa: float) -> float:
    if unit == "rate":
        return value
    if not kappa > 0:
        raise ConfigError(f"w_unit {unit} needs kappa > 0, got kappa = "
                          f"{kappa!r}; give the pump with w_unit rate")
    if unit == "kappa-over-n":
        return value * kappa / n
    if unit == "cgamma":
        return value * g * g / kappa
    return value * n * g * g / kappa   # ncgamma


def _coerce(value):
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _fmt(value) -> str:
    value = _coerce(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARAM_KEYS = ("n", "m", "g", "kappa", "kappa_tilde", "w", "w_unit",
               "gamma", "gamma_d")
_GRID_KEYS = ("dt", "t_dense", "t_max", "n_tail")
_FIT_KEYS = ("fit_t_min", "fit_t_max")

#: the config keys each command reads besides ``out``, the ones its header
#: echoes (a sweep overrides ``w`` at every point)
READS: Dict[str, tuple] = {
    "steady": _PARAM_KEYS + ("engine",),
    "sweep": tuple(k for k in _PARAM_KEYS if k != "w")
    + ("engine", "w_min", "w_max", "w_steps", "w_scale"),
    "g1": _PARAM_KEYS + _GRID_KEYS + _FIT_KEYS,
    "g2": _PARAM_KEYS + _GRID_KEYS,
    "spectrum": _PARAM_KEYS + _GRID_KEYS + _FIT_KEYS
    + ("omega_max", "omega_points"),
    "cumulant": _PARAM_KEYS + ("engine",),
    "validate": ("n", "m", "seed", "draws", "trace_points", "tol_obs",
                 "tol_trace"),
}


def _metadata_lines(cfg: Dict) -> List[str]:
    lines = [f"blocklaser {__version__}", f"command: {cfg['command']}"]
    if cfg.get("preset"):
        lines.append(f"preset: {cfg['preset']}")
    for key in sorted(READS[cfg["command"]] + ("format",)):
        value = cfg[key]
        if value is None:
            continue
        lines.append(f"{key}: {_fmt(value)}")
    return lines


def _write_table(cfg: Dict, columns: List[str], rows: List[List],
                 extra_meta: Optional[Dict] = None) -> None:
    meta = _metadata_lines(cfg)
    for key, value in (extra_meta or {}).items():
        meta.append(f"{key}: {_fmt(value)}")
    buf = io.StringIO()
    if cfg["format"] == "csv":
        for line in meta:
            buf.write(f"# {line}\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        doc = {
            "tool": "blocklaser",
            "version": __version__,
            "metadata": meta,
            "columns": columns,
            "data": [[_coerce(v) for v in row] for row in rows],
        }
        buf.write(json.dumps(doc, indent=1, sort_keys=True))
        buf.write("\n")
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _symmetric_steady(params: ModelParams):
    return steady_state(liouvillian_for(params, 0))


STEADY_COLUMNS = ["w", "w_tilde", "nb", "spsm", "sz"]


def _w_tilde(params: ModelParams) -> float:
    """w N / kappa, or nan at kappa = 0, where it is undefined."""
    if params.cavity_decay == 0:
        return math.nan
    return params.pump * params.n_atoms / params.cavity_decay


def _steady_row(params: ModelParams, cfg: Dict) -> List:
    """One STEADY_COLUMNS row from the configured backend."""
    engine = cfg["engine"]
    if engine == "symmetric":
        ss = _symmetric_steady(params)
        sz, nb = expect_sigma_z(ss), expect_photon_number(ss)
        spsm = expect_spin_spin(ss) if params.n_atoms >= 2 else math.nan
    else:
        cu = cumulant_steady(params, blockaded=engine != "cumulant-normal")
        sz, spsm, nb = cu.sz, cu.spsm, cu.nb
    return [params.pump, _w_tilde(params), nb, spsm, sz]


def _cmd_steady(cfg: Dict) -> int:
    _write_table(cfg, STEADY_COLUMNS, [_steady_row(_params_from_config(cfg), cfg)])
    return 0


def _sweep_values(cfg: Dict) -> np.ndarray:
    if cfg["w_min"] is None or cfg["w_max"] is None:
        raise ConfigError("sweep needs w_min and w_max")
    lo, hi, steps = cfg["w_min"], cfg["w_max"], cfg["w_steps"]
    if hi <= lo:
        raise ConfigError("sweep range must be increasing (w_max > w_min)")
    if cfg["w_scale"] == "log":
        if lo <= 0:
            raise ConfigError("log sweep needs positive w_min")
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def _cmd_sweep(cfg: Dict) -> int:
    rows = [_steady_row(_params_from_config(cfg, w_override=w), cfg)
            for w in _sweep_values(cfg)]
    _write_table(cfg, STEADY_COLUMNS, rows)
    return 0


def _trace_grid(cfg: Dict) -> np.ndarray:
    dt, t_dense, t_max, n_tail = (cfg[k] for k in _GRID_KEYS)
    if n_tail > 0 and (t_max is None or t_max <= t_dense):
        raise ConfigError("n_tail needs t_max beyond t_dense")
    if n_tail <= 0 and t_max is not None and t_max > t_dense:
        raise ConfigError("t_max beyond t_dense needs n_tail")
    return correlation_times(dt_dense=dt, t_dense=t_dense,
                             t_max=t_max, n_tail=n_tail)


def _fit_window(cfg: Dict):
    """The tail-fit window (fit_t_min, fit_t_max), or None if neither is set."""
    lo, hi = cfg["fit_t_min"], cfg["fit_t_max"]
    if hi is None and lo is not None:
        raise ConfigError("fit_t_min needs fit_t_max")
    if lo is None and hi is not None:
        raise ConfigError("fit_t_max needs fit_t_min")
    return None if lo is None else (lo, hi)


def _tail_meta(trace) -> Dict:
    """The walk's number of products with the generator, where the
    trace's tail became the closed-form one-mode decay, and its
    eigenvalue; None for a trace propagated to its last delay."""
    return {"propagation_matvecs": trace.matvecs,
            "analytic_tail_delay": trace.tail_delay,
            "analytic_tail_eigenvalue": trace.tail_eigenvalue}


def _cmd_g1(cfg: Dict) -> int:
    params = _params_from_config(cfg)
    times, window = _trace_grid(cfg), _fit_window(cfg)
    ss = _symmetric_steady(params)
    trace = g1_trace(params, ss, times)
    meta = {"nb": trace.normalization, **_tail_meta(trace)}
    fit = None
    if window is not None:
        try:
            fit = fit_linewidth(trace, window)
        except PoorFitError as exc:
            print(f"warning: tail fit rejected: {exc}", file=sys.stderr)
    if fit is not None:
        meta.update(fit_rate=fit.rate, fit_amplitude=fit.amplitude,
                    fit_log_residual_rms=fit.log_residual_rms)
    rows = [[t, v.real, v.imag, abs(v)]
            for t, v in zip(trace.times, trace.values)]
    _write_table(cfg, ["t", "re", "im", "abs"], rows, meta)
    return 0


def _cmd_g2(cfg: Dict) -> int:
    params = _params_from_config(cfg)
    times = _trace_grid(cfg)
    trace = g2_trace(params, _symmetric_steady(params), times)
    rows = [[t, float(v)] for t, v in zip(trace.times, trace.values)]
    meta = {"nb_squared": trace.normalization, **_tail_meta(trace)}
    _write_table(cfg, ["t", "g2"], rows, meta)
    return 0


def _cmd_spectrum(cfg: Dict) -> int:
    params = _params_from_config(cfg)
    times, window = _trace_grid(cfg), _fit_window(cfg)
    if len(times) < 2:
        raise ConfigError("spectrum needs at least two delays; "
                          "raise t_dense or lower dt")
    omega_max = cfg["omega_max"]
    if omega_max is None:   # a quarter of the grid's Nyquist frequency
        omega_max = np.pi / (4.0 * np.min(np.diff(times)))
    freqs = np.linspace(-omega_max, omega_max, cfg["omega_points"])
    ss = _symmetric_steady(params)
    trace = g1_trace(params, ss, times)
    fit = None if window is None else fit_linewidth(trace, window)
    spec = power_spectrum(trace, freqs=freqs, tail_fit=fit)
    meta = dict(spec.metadata, nb=trace.normalization, **_tail_meta(trace))
    if params.n_atoms >= 2:
        meta["omega_eff"] = effective_rabi(params, expect_spin_spin(ss))
    rows = [[w, v] for w, v in zip(spec.freqs, spec.values)]
    _write_table(cfg, ["omega", "s"], rows, meta)
    return 0


def _cmd_cumulant(cfg: Dict) -> int:
    params = _params_from_config(cfg)
    # every engine but cumulant-normal runs the blockaded cumulant, and
    # the header names the variant that ran
    if cfg["engine"] != "cumulant-normal":
        cfg["engine"] = "cumulant"
    blockaded = cfg["engine"] == "cumulant"
    cu = cumulant_steady(params, blockaded=blockaded)
    columns = ["w", "w_tilde", "sz", "spsm", "nb", "im_bdsm",
               "nb_closed_form", "linewidth_closed_form"]
    # the blockaded closed forms, written as nan for the normal mode and
    # where their scales kappa / (N g) and w N / kappa are undefined
    closed_nb = closed_lw = math.nan
    if blockaded and params.cavity_decay > 0 and params.coupling > 0:
        closed_nb = closed_form_photon(params)
        closed_lw = closed_form_linewidth(params)
    _write_table(cfg, columns,
                 [[params.pump, _w_tilde(params), cu.sz, cu.spsm, cu.nb,
                   cu.bdsm.imag, closed_nb, closed_lw]])
    return 0


def validation_report(n: int, m: int, seed: int, draws: int,
                      trace_points: int = 100) -> List[Dict]:
    """Per-draw maximum deviations between the symmetric solver and the
    full-space reference."""
    if hilbert_dim(n, m) > DEFAULT_HILBERT_CAP:
        raise ConfigError(
            f"validation needs 2^N (M+1) <= {DEFAULT_HILBERT_CAP}")
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    if trace_points < 1:
        raise ConfigError(f"trace_points must be at least 1, got {trace_points}")
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(draws):
        params = random_params(rng, n, m)
        ss = _symmetric_steady(params)
        rho = oracle_steady_state(params)
        ref = oracle_expectations(params, rho)
        d_obs = max(
            abs(expect_sigma_z(ss) - ref["sz"]) / (1 + abs(ref["sz"])),
            abs(expect_photon_number(ss) - ref["nb"]) / (1 + abs(ref["nb"])),
        )
        if n >= 2:
            d_obs = max(d_obs, abs(expect_spin_spin(ss) - ref["spsm"])
                        / (1 + abs(ref["spsm"])))
        times = np.linspace(0.0, 5.0 / params.cavity_decay, trace_points)
        d_g1 = np.abs(g1_trace(params, ss, times).values
                      - oracle_g1(params, times, rho_ss=rho)).max()
        d_g2 = np.abs(g2_trace(params, ss, times).values
                      - oracle_g2(params, times, rho_ss=rho)).max()
        rows.append({"draw": k, "d_obs": float(d_obs),
                     "d_g1": float(d_g1), "d_g2": float(d_g2)})
    return rows


def _cmd_validate(cfg: Dict) -> int:
    rows = validation_report(cfg["n"], cfg["m"], cfg["seed"], cfg["draws"],
                             cfg["trace_points"])
    table = [[r["draw"], r["d_obs"], r["d_g1"], r["d_g2"]] for r in rows]
    worst_obs = max(r["d_obs"] for r in rows)
    worst_trace = max(max(r["d_g1"], r["d_g2"]) for r in rows)
    meta = {"max_observable_deviation": worst_obs,
            "max_trace_deviation": worst_trace}
    _write_table(cfg, ["draw", "d_obs", "d_g1", "d_g2"], table, meta)
    if worst_obs > cfg["tol_obs"] or worst_trace > cfg["tol_trace"]:
        raise ValidationFailure(
            f"max observable deviation {worst_obs:.3e} (tol {cfg['tol_obs']}), "
            f"max trace deviation {worst_trace:.3e} (tol {cfg['tol_trace']})")
    return 0


_HANDLERS = {
    "steady": _cmd_steady,
    "sweep": _cmd_sweep,
    "g1": _cmd_g1,
    "g2": _cmd_g2,
    "spectrum": _cmd_spectrum,
    "cumulant": _cmd_cumulant,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = resolve_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[cfg["command"]](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
