"""Measure one workload in this process; ``run.py`` starts it as a child.

    python3 bench/harness.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``): run the workload repeatedly for ``--seconds``,
each run on a fresh build with its own seed derived from ``--seed``, and
report the end-to-end metrics of BENCHMARK.json.  Traced (``--trace 1``):
alternate untraced and traced runs on ``--seed`` itself and report the
per-layer metrics.  Either way the first run, on ``--seed`` itself, is an
untimed warm-up that also carries the seed-specific checks.  Every run's
outputs are checked; the last line printed is the JSON result.

Host time is ``perf_counter`` wall-clock, scaled to a reference host speed
(so ``run_s``, ``setup_s``, ``writes_per_s`` and the per-call percentiles
are calibrated host seconds): a fixed loop of interpreter and small numpy
work, independent of the library, is timed between consecutive runs, and
each run's times are multiplied by ``CALIBRATION_REFERENCE_S`` over the
geometric mean of the loops just before and just after it.  On a shared
host the speed drifts by tens of percent for tens of seconds at a time;
the loop slows with the workload, so the ratio cancels the drift that a
median over one measurement cannot.  Simulated quantities appear only as
outputs and checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.util.rng import derive_seed

from tracer import Observer, Tracer
from workloads import Built, Check, Outputs, Workload, workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"

#: Timed runs per pass even when ``--seconds`` is already spent.
MIN_RUNS = 3
#: Steps of the calibration loop, and the loop's time at the reference
#: speed (its median on a 2-vCPU Xeon VM, CPython 3.11, numpy 2.4).
CALIBRATION_STEPS = 6000
CALIBRATION_REFERENCE_S = 0.016
#: Traced runs: tracing overhead is reported, so the self times of all
#: spans must still add up to the traced run's wall-clock within this share.
SELF_TIME_TOLERANCE = 0.02

#: Methods wrapped on the instances a workload builds: (part, method, span).
SPANS = (
    ("scheme", "consume_chunk", "scheme.consume_chunk"),
    ("scheme", "record_write", "scheme.record_write"),
    ("scheme", "translate", "scheme.translate"),
    ("scheme", "round_wear_profile", "scheme.round_wear_profile"),
    ("scheme", "apply_round", "scheme.apply_round"),
    ("controller", "write", "controller.write"),
    ("controller", "write_chunk", "controller.write_chunk"),
    ("array", "write", "array.write"),
    ("array", "write_many", "array.write_many"),
    ("array", "copy", "array.copy"),
    ("array", "swap", "array.swap"),
    ("array", "apply_wear_bulk", "array.apply_wear_bulk"),
)
TRACE_SPAN = "trace"
ROOTS = ("engine", "attack")
#: Per-layer units measured in host time; the others are deterministic.
TIME_UNITS = ("%", "us")


class Checks:
    """Correctness checks run so far; every one counts toward error_rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, checks: List[Check], context: str) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{context}: {label}")


def observe(span: str) -> Optional[Observer]:
    """Counter hook for the spans whose results carry layer outcomes."""

    def consume_chunk(stats, args, result):
        stats.count("writes", result[1])
        if result[1] == 0:
            stats.count("zero_returns")

    def apply_round(stats, args, result):
        stats.count("writes", args[0].writes)

    def apply_wear_bulk(stats, args, result):
        if not result:
            stats.count("refused")

    hooks = {
        "scheme.consume_chunk": consume_chunk,
        "scheme.apply_round": apply_round,
        "array.apply_wear_bulk": apply_wear_bulk,
    }
    return hooks.get(span)


def instrument(tracer: Tracer, built: Built) -> None:
    """Wrap the public methods of the instances ``built`` holds."""
    controller = built.controller
    parts = {"scheme": controller.scheme, "controller": controller, "array": controller.array}
    for part, method, span in SPANS:
        tracer.wrap(parts[part], method, span, observe(span))
    if built.spec is not None:
        tracer.wrap_iterator(built.spec, "chunks", TRACE_SPAN)


def calibration_s() -> float:
    """Wall-clock of the fixed calibration loop (library code not involved)."""
    start = perf_counter()
    keys = np.arange(4096, dtype=np.int64) * 2654435761 % 65536
    acc = 0
    for step in range(CALIBRATION_STEPS):
        low = step * 7 % 4000
        window = keys[low : low + 64]
        order = np.argsort(window, kind="stable")
        acc = (acc + (int(window[order[0]]) ^ step)) & 0xFFFF
    return perf_counter() - start


def one_run(
    w: Workload, seed: int, tracer: Optional[Tracer] = None
) -> Tuple[Outputs, float, float, float]:
    """Build and run once; return outputs, setup_s, run_s and the end time."""
    gc.collect()
    start = perf_counter()
    built = w.setup(seed)
    setup_s = perf_counter() - start
    if tracer is None:
        start = perf_counter()
        result = w.run(built)
        end = perf_counter()
    else:
        instrument(tracer, built)
        start = perf_counter()
        with tracer.span(w.root):
            result = w.run(built)
        end = perf_counter()
    return w.outputs(built, result), setup_s, end - start, end


class HostSpeed:
    """Calibration loops timed between runs, one loop per run."""

    def __init__(self) -> None:
        self.before_s = calibration_s()

    def scale(self) -> float:
        """Reference over host speed for the run that just ended."""
        after_s = calibration_s()
        scale = CALIBRATION_REFERENCE_S / math.sqrt(self.before_s * after_s)
        self.before_s = after_s
        return scale


def warm_up(
    w: Workload, seed: int, expected: Optional[dict], envelope: Optional[List[int]], checks: Checks
) -> Outputs:
    """Untimed first run on ``seed`` with the seed-specific checks."""
    out = one_run(w, seed)[0]
    pinned = None
    if expected is not None:
        pinned = expected["outputs"].get(str(seed), {}).get(w.name)
        if pinned is not None and w.fast_forward != "off":
            # Statistical tiers may change these; reported, not checked.
            print(f"outputs_identical = {str(out == pinned).lower()}")
    checks.add(w.check(out, pinned, envelope), f"seed {seed}")
    if w.fast_forward == "off" and w.n_writes is not None:
        checks.add(w.prefix_check(seed), f"seed {seed}")
    print(f"outputs (seed {seed}) = {json.dumps(out, sort_keys=True)}")
    return out


def end_to_end(
    w: Workload, seed: int, seconds: float, envelope: Optional[List[int]], checks: Checks
) -> Dict[str, float]:
    """Untraced runs on fresh seeds for ``seconds``; the end-to-end metrics."""
    samples = []
    deadline = perf_counter() + seconds
    speed = HostSpeed()
    while len(samples) < MIN_RUNS or perf_counter() < deadline:
        run_seed = derive_seed(seed, w.name, len(samples) + 1)
        out, setup_s, run_s, _ = one_run(w, run_seed)
        scale = speed.scale()
        checks.add(w.check(out, envelope=envelope), f"seed {run_seed}")
        samples.append((setup_s * scale, run_s * scale, out["user_writes"], scale))
    run_times = [run_s for _, run_s, _, _ in samples]
    print(f"runs = {len(samples)}")
    print(f"host speed scale = {statistics.median(s[3] for s in samples):.4f} (median)")
    return {
        "run_s": statistics.median(run_times),
        "writes_per_s": statistics.median(s[2] / s[1] for s in samples),
        "setup_s": statistics.median(s[0] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(
    w: Workload, tracer: Tracer, out: Outputs, run_s: float, end: float, scale: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``trace_overhead`` is added later).

    ``run_s`` and ``end`` are unscaled wall-clock; ``scale`` converts the
    per-call times to the reference host speed.
    """
    total = tracer.self_total_s()
    metrics: Dict[str, float] = {}
    for span in [TRACE_SPAN] + [span for _, _, span in SPANS]:
        stats = tracer.layer(span)
        metrics[f"{span}.self_pct"] = 100 * stats.self_s / total
        metrics[f"{span}.calls"] = stats.calls
    for root in ROOTS:
        metrics[f"{root}.self_pct"] = 100 * tracer.layer(root).self_s / total
    chunk = tracer.layer("scheme.consume_chunk")
    metrics["scheme.consume_chunk.zero_returns"] = chunk.counters.get("zero_returns", 0)
    metrics["scheme.consume_chunk.writes_per_call"] = (
        chunk.counters.get("writes", 0) / chunk.calls if chunk.calls else 0.0
    )
    write = tracer.layer("controller.write")
    metrics["controller.write.p50_us"] = write.percentile_us(50) * scale
    metrics["controller.write.p99_us"] = write.percentile_us(99) * scale
    metrics["array.apply_wear_bulk.refused"] = tracer.layer(
        "array.apply_wear_bulk"
    ).counters.get("refused", 0)
    user_writes = out["user_writes"]
    analytic = tracer.layer("scheme.apply_round").counters.get("writes", 0)
    fast_forward = w.fast_forward != "off"
    # The drop-back starts when run_fast_forward first draws the trace.
    dropback_s = end - tracer.marks[TRACE_SPAN] if fast_forward else 0.0
    metrics["ff.dropback_pct"] = 100 * dropback_s / run_s
    metrics["ff.dropback_writes"] = user_writes - analytic if fast_forward else 0
    metrics["ff.analytic_write_share"] = analytic / user_writes
    metrics["ff.lifetime_rel_err"] = out.get("lifetime_rel_err", 0.0)
    return metrics


def per_layer(
    w: Workload,
    seed: int,
    seconds: float,
    reference: Outputs,
    checks: Checks,
    units: Dict[str, str],
) -> Dict[str, float]:
    """Untraced and traced runs on ``seed`` in turn; the per-layer metrics."""
    untraced_s: List[float] = []
    traced_s: List[float] = []
    runs: List[Dict[str, float]] = []
    deadline = perf_counter() + seconds
    speed = HostSpeed()
    while len(runs) < MIN_RUNS - 1 or perf_counter() < deadline:
        out, _, run_s, _ = one_run(w, seed)
        untraced_s.append(run_s * speed.scale())
        checks.add([("repeat run gives identical outputs", out == reference)], "untraced")
        tracer = Tracer()
        out, _, run_s, end = one_run(w, seed, tracer)
        scale = speed.scale()
        traced_s.append(run_s * scale)
        self_s = tracer.self_total_s()
        checks.add(
            [
                ("tracing changes no output", out == reference),
                (
                    f"self times sum {self_s:.4f} s ~ run_s {run_s:.4f} s",
                    abs(self_s - run_s) <= SELF_TIME_TOLERANCE * run_s,
                ),
            ],
            "traced",
        )
        if not runs:
            tracer.write_log(OUT_DIR / f"{w.name}-seed{seed}-spans.jsonl")
        runs.append(layer_metrics(w, tracer, out, run_s, end, scale))
    timed = {name for name, unit in units.items() if unit in TIME_UNITS}
    counts = [{k: v for k, v in run.items() if k not in timed} for run in runs]
    checks.add(
        [("traced runs give identical counts", all(c == counts[0] for c in counts))],
        "traced",
    )
    metrics = dict(counts[0])
    for name in timed & runs[0].keys():
        metrics[name] = statistics.median(run[name] for run in runs)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    metrics["trace_overhead"] = 100 * overhead
    print(f"traced runs = {len(runs)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    w = workload(args.workload, smoke=args.smoke)
    # Pins and envelopes hold for the full sizes only.
    expected, envelope = None, None
    if not args.smoke:
        expected = json.loads((BENCH / "expected.json").read_text())
        envelope = expected["movement_writes_envelope"].get(w.name)
    checks = Checks()
    print(f"workload {w.name}  seed {args.seed}  {'traced' if args.trace else 'untraced'}")
    reference = warm_up(w, args.seed, expected, envelope, checks)
    if args.trace:
        metrics = per_layer(w, args.seed, args.seconds, reference, checks, units)
    else:
        metrics = end_to_end(w, args.seed, args.seconds, envelope, checks)
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}"
        )
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for failure in checks.failures:
        print(f"FAILED CHECK {failure}")
    print(f"error_rate = {len(checks.failures) / checks.attempted:.6g}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
