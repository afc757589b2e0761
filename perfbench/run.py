"""Benchmark runner for blocklaser.

    python3 perfbench/run.py --workload pump-sweep --seed 1 --seconds 30 --trace 0

Without ``--workload`` it runs all four workloads, one after another.
For each workload it runs repetitions, each in a fresh child process
(``child.py``) with BLAS threads pinned to 1, one at a time, until
``--seconds`` of wall time are used. Each child imports blocklaser from
``src/``, runs a cold pass on seed-derived inputs A and a warm pass on
inputs B, and checks every operation's outputs.

Each child also runs a yardstick (``yardstick.py``) between its calls into
blocklaser and scales its times to one fixed machine speed. With
``--trace 0`` the run reports the end-to-end metrics, each the median over
the children. With ``--trace 1`` it alternates untraced and traced
children and reports the per-layer metrics of the traced ones, plus the
tracing overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, every child's result and the spans, goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: as in workloads.py, which this script does not import: it never loads
#: blocklaser itself, so a checkout without sources fails before any child
WORKLOADS = ("pump-sweep", "correlation", "cumulant-sweep", "oracle-validate")
DEFAULT_SEED = 1
#: every child runs under these, so BLAS never competes with itself
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: no child starts after this many seconds, so the run exits within 180 s
HARD_LIMIT_S = 150.0


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, workload: str, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.seed == DEFAULT_SEED:
        cmd.append("--check-reference")
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--start", repr(start)], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE,
                          timeout=max(deadline - start, 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "thread_pin": THREAD_PIN}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args, workload: str, spec: dict, env: dict) -> int:
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    load_before = os.getloadavg()[0]

    children = []
    kinds = (0, 1) if args.trace else (0,)
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        if len(children) >= len(kinds) and elapsed + longest > args.seconds:
            break
        if elapsed + longest > HARD_LIMIT_S:
            print("perfbench: out of time before the minimum repetitions",
                  file=sys.stderr)
            return 1
        children.append(run_child(args, workload, kinds[len(children) % len(kinds)],
                                  deadline))
        longest = max(longest, children[-1]["wall_s"])
    load_after = os.getloadavg()[0]

    untraced = [c for c in children if "layers" not in c]
    traced = [c for c in children if "layers" in c]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)

    if args.trace:
        metrics = {key: statistics.median(c["layers"][key] for c in traced)
                   for key in traced[0]["layers"]}
        for key in ("cold_s", "warm_s"):
            metrics[f"untraced.{key}"] = statistics.median(c[key] for c in untraced)
            metrics[f"traced.{key}"] = statistics.median(c[key] for c in traced)
            metrics[f"tracing.{key[:-2]}_overhead_s"] = (
                metrics[f"traced.{key}"] - metrics[f"untraced.{key}"])
    else:
        samples = {k: [c[k] for c in children]
                   for k in ("setup_s", "cold_s", "warm_s", "peak_rss_mb")}
        metrics = {k: statistics.median(v) for k, v in samples.items()}
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "load_1min": {"before": load_before, "after": load_after},
        "contended": max(load_before, load_after) > env["nproc"],
        "children": children,
        "metrics": metrics, "attempted": attempted, "failed": failed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {workload} seed={args.seed} trace={args.trace} "
          f"children={len(children)} "
          f"record={out_path.relative_to(ROOT)}")
    print(f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"nproc={env['nproc']} pin={THREAD_PIN['OPENBLAS_NUM_THREADS']} "
          f"load={load_before:.2f}->{load_after:.2f}"
          + ("  CONTENDED: load average above nproc" if record["contended"] else ""))
    for c in children:
        for msg in c["failures"]:
            print(f"FAILED {msg}")
    if not args.trace:
        for key, values in samples.items():
            lo, hi = quartiles(values)
            print(f"{key:<12} {metrics[key]:12.4f} {declared[key]:<3} median of "
                  f"{len(values)} repetitions, quartiles {lo:.4f}..{hi:.4f}")
        unscaled = {k: statistics.median(c[k] for c in children) for k in (
            "setup_wall_s", "cold_wall_s", "warm_wall_s",
            "cold_yardstick_s", "warm_yardstick_s")}
        print("unscaled medians: " + ", ".join(
            f"{k} {v:.4f}" for k, v in unscaled.items())
            + f" (yardstick reference {REFERENCE_S} s)")
    else:
        for key, value in metrics.items():
            print(f"{key:<58} {value:14.6g} {declared[key]}")
    print(f"{'error_rate':<12} {failed / attempted:12.4f} 1   "
          f"{failed} failed of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "blocklaser" / "__init__.py").is_file():
        print(f"perfbench: no blocklaser sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    for workload in [args.workload] if args.workload else WORKLOADS:
        status = run_workload(args, workload, spec, env)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
