"""One repetition of a workload, run in a fresh process by ``run.py``.

The process imports blocklaser, builds both seeded input sets and reports
``setup_s``, the time since the parent started it. It then runs pass A
(cold: the per-size caches of blocklaser are empty, as in every CLI
invocation) and pass B (warm: new parameters at the same sizes), with the
yardstick paced between the calls into blocklaser, and prints one JSON
object on stdout: wall and yardstick times, and the times scaled by them.
With ``--trace 1`` every call into a layer is wrapped in a span; the spans
are kept in memory and printed at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median

from workloads import CheckFailed, make_inputs, run_op
from yardstick import REFERENCE_S, Yardstick

#: layers the traced run reports, named module.function of the public call
LAYERS = (
    "symbasis.enumerate_sector",
    "liouvillian.build_liouvillian",
    "liouvillian.liouvillian_for",
    "liouvillian.basis_scaling",
    "dynamics.steady_state",
    "observables.expect",
    "observables.g1_trace",
    "observables.g2_trace",
    "observables.fit_linewidth",
    "observables.power_spectrum",
    "cumulant.cumulant_steady",
    "oracle.oracle_steady_state",
    "oracle.oracle_expectations",
    "oracle.oracle_g1",
    "oracle.oracle_g2",
)

#: per-layer counts that run_op collects from outside the program
COUNTS = (
    "symbasis.sector_dim.charge0", "symbasis.sector_dim.charge_m1",
    "liouvillian.nnz.charge0", "liouvillian.nnz.charge_m1",
    "observables.g1_trace.points_dense", "observables.g1_trace.points_tail",
    "observables.fit_linewidth.rms",
    "observables.power_spectrum.phase_bytes_computed",
)

REFERENCE = Path(__file__).with_name("reference.json")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _paced(call, yardstick):
    def paced(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return call(name, fn, *args, **kwargs)
        finally:
            yardstick.pace(time.perf_counter() - t0)
    return paced


class Tracer:
    """Spans (name, start, end, parent, pass id) recorded in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, pass_id: str):
        record = {"name": name, "pass": pass_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "failed": False, "rss_before_mb": _maxrss_mb(),
                  "start": time.perf_counter()}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record["failed"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            record["rss_rise_mb"] = _maxrss_mb() - record.pop("rss_before_mb")
            self._stack.pop()

    def caller(self, pass_id: str):
        def call(name, fn, *args, **kwargs):
            with self.span(name, pass_id):
                return fn(*args, **kwargs)
        return call

    def self_times(self):
        """Span duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _mismatches(outputs: dict, expected: dict, tolerance: dict):
    for key, want in expected.items():
        tol = tolerance[key]
        got = outputs.get(key)
        if got is None or abs(got - want) > tol["atol"] + tol["rtol"] * abs(want):
            yield f"{key} = {got!r}, reference {want!r} (tol {tol})"


def run_passes(workload: str, passes, tracer, reference, yardstick):
    """Run both passes, pacing the yardstick after every call into a layer.

    A pass's time is the wall time of its operations less the yardstick's
    share; its yardstick time is the median of the samples taken in it and
    the ones just before and after it, so it follows the machine's speed
    over the pass.
    """
    out = {"attempted": 0, "failed": 0, "failures": [], "outputs": [],
           "stats": {}}
    yardstick()
    for pass_id, ops, key in zip("AB", passes, ("cold", "warm")):
        call = _paced(tracer.caller(pass_id) if tracer else _direct, yardstick)
        expected = reference["outputs"][pass_id] if reference else None
        outputs = []
        first = len(yardstick.samples) - 1
        t0, spent0 = time.perf_counter(), yardstick.spent_s
        for k, op in enumerate(ops):
            out["attempted"] += 1
            try:
                with tracer.span("op", pass_id) if tracer else nullcontext():
                    result = run_op(workload, op, call, out["stats"])
                if expected:
                    bad = list(_mismatches(result, expected[k],
                                           reference["tolerance"]))
                    if bad:
                        raise CheckFailed("; ".join(bad))
            except Exception as exc:  # a failed operation is counted, not fatal
                out["failed"] += 1
                out["failures"].append(f"pass {pass_id} op {k}: "
                                       f"{type(exc).__name__}: {exc}")
                result = None
            outputs.append(result)
        elapsed = time.perf_counter() - t0 - (yardstick.spent_s - spent0)
        yardstick()
        speed = median(yardstick.samples[first:])
        out[f"{key}_wall_s"] = elapsed
        out[f"{key}_yardstick_s"] = speed
        out[f"{key}_s"] = elapsed * REFERENCE_S / speed
        out["outputs"].append(outputs)
    return out


def layer_metrics(tracer: Tracer, stats: dict) -> dict:
    own = tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(tracer.spans) if s["name"] == layer]
        metrics[f"{layer}.calls"] = len(idx)
        metrics[f"{layer}.self_s"] = sum(own[i] for i in idx)
        metrics[f"{layer}.failed"] = sum(tracer.spans[i]["failed"] for i in idx)

    def durations(layer):
        return [s["end"] - s["start"] for s in tracer.spans if s["name"] == layer] or [0.0]

    for layer, stem in (("dynamics.steady_state", ""),
                        ("cumulant.cumulant_steady", "point_")):
        metrics[f"{layer}.{stem}p50_s"] = median(durations(layer))
        metrics[f"{layer}.{stem}max_s"] = max(durations(layer))
    metrics["observables.power_spectrum.rss_rise_mb"] = sum(
        s["rss_rise_mb"] for s in tracer.spans
        if s["name"] == "observables.power_spectrum")
    metrics.update({key: stats.get(key, 0) for key in COUNTS})
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=float, required=True,
                    help="time.monotonic() of the parent when it started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-reference", action="store_true")
    args = ap.parse_args()

    passes = make_inputs(args.workload, args.seed)
    setup_s = time.monotonic() - args.start

    reference = None
    if args.check_reference:
        reference = json.loads(REFERENCE.read_text())
        reference = dict(reference["workloads"][args.workload],
                         tolerance=reference["tolerance"])
    tracer = Tracer() if args.trace else None
    result = run_passes(args.workload, passes, tracer, reference, Yardstick())
    result.update(setup_wall_s=setup_s, peak_rss_mb=_maxrss_mb(),
                  setup_s=setup_s * REFERENCE_S / result["cold_yardstick_s"])
    if tracer:
        result["layers"] = layer_metrics(tracer, result["stats"])
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
