#!/usr/bin/env python3
"""Run the repository benchmark, or compare two sets of its results.

    python3 bench/run.py [--workload NAME ...] [--seed 7] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out FILE]
    python3 bench/run.py compare PARENT.json CHANGE.json

Workloads run one at a time, each in a fresh child process (harness.py)
with one numpy thread.  With one workload the child's output passes through
unchanged, so the last line is that workload's JSON result; with several, a
combined JSON line follows.  ``--out`` appends every workload's result to a
JSON list, the input format of ``compare``.  The workloads, metrics and
bounds are those of BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A child may run this long past its ``--seconds`` before it is stopped.
CHILD_GRACE_S = 150
#: Changes smaller than this, in the metric's unit, are ``unchanged`` whatever
#: their share of the median: set-up takes well under a millisecond here.
ABSOLUTE_FLOOR = {"setup_s": 0.020}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ run


def run_workload(name: str, args: argparse.Namespace) -> Tuple[int, str]:
    """Run one workload in a child process; return its exit code and stdout."""
    command = [
        sys.executable, str(BENCH / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {name} timed out and was stopped", file=sys.stderr)
        return 1, ""
    return child.returncode, child.stdout


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    results: Dict[str, dict] = {}
    for name in names:
        code, stdout = run_workload(name, args)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        if code != 0 or not stdout.strip():
            print(f"bench: {name} exited with code {code}", file=sys.stderr)
            return code or 1
        results[name] = json.loads(stdout.strip().splitlines()[-1])
    if args.out:
        records = json.loads(args.out.read_text()) if args.out.exists() else []
        records += [
            {"workload": name, "seed": args.seed, "trace": args.trace, **result}
            for name, result in results.items()
        ]
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if len(names) > 1:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
        print(json.dumps(combined))
    return 0


# -------------------------------------------------------------- compare


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as the benchmark gate takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    floor: float = 0.0,
) -> str:
    """Judge one (workload, metric) of a change against its parent's runs.

    The tolerance is ``bound`` times the parent's median, or ``floor`` (in
    the metric's unit) if that is larger.  ``worse``: the change's median is
    worse than the parent's by more than the tolerance.  ``better``: it is
    better by more than the spread between the parent's own runs (their
    quartile distance) and by more than ``floor``.  ``unresolved``: that
    spread is wider than the tolerance, so neither can be told, unless every
    change run beats every parent run.  Otherwise ``unchanged``.
    """
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    tolerance = max(bound * parent_median, floor)
    spread = q3 - q1
    sign = 1 if better == "lower" else -1
    worse_by = sign * (change_median - parent_median)
    if abs(worse_by) < floor:
        return "unchanged"
    if spread > tolerance:
        if better == "lower":
            beats_all = max(change) < min(parent)
        else:
            beats_all = min(change) > max(parent)
        return "better" if beats_all else "unresolved"
    if worse_by > tolerance:
        return "worse"
    if -worse_by > spread:
        return "better"
    return "unchanged"


def group(records: List[dict]) -> Dict[Tuple[str, str], Tuple[List[float], str]]:
    """Values of each (workload, metric) across result records, with the unit."""
    grouped: Dict[Tuple[str, str], Tuple[List[float], str]] = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            values, _ = grouped.setdefault((record["workload"], metric), ([], entry["unit"]))
            values.append(entry["value"])
    return grouped


def compare(parent_path: Path, change_path: Path) -> int:
    bounds = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    parent = group(json.loads(parent_path.read_text()))
    change = group(json.loads(change_path.read_text()))
    worse = 0
    header = ("workload", "metric", "unit", "parent q1/med/q3", "change q1/med/q3", "delta", "verdict")
    print("  ".join(header))
    for key in sorted(parent.keys() & change.keys()):
        (p_values, unit), (c_values, _) = parent[key], change[key]
        spec = bounds.get(key[1])
        judged = "-" if spec is None else verdict(
            p_values, c_values, spec["better"], spec["bound"], ABSOLUTE_FLOOR.get(key[1], 0.0)
        )
        worse += judged == "worse"
        p, c = quartiles(p_values), quartiles(c_values)
        delta = f"{100 * (c[1] / p[1] - 1):+.1f}%" if p[1] else "-"
        print(
            f"{key[0]}  {key[1]}  {unit}  "
            f"{p[0]:.4g}/{p[1]:.4g}/{p[2]:.4g} (n={len(p_values)})  "
            f"{c[0]:.4g}/{c[1]:.4g}/{c[2]:.4g} (n={len(c_values)})  {delta}  {judged}"
        )
    return 1 if worse else 0


# ----------------------------------------------------------------- main


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in benchmark["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced pass",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--out", type=Path, help="append results to this JSON list")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
