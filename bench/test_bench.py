"""Self-test of the benchmark at --smoke sizes.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import TIME_UNITS, one_run  # noqa: E402
from run import compare, verdict  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> str:
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def combined(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, stdout
    return result


@pytest.fixture(scope="module")
def untraced() -> str:
    return bench()


@pytest.fixture(scope="module")
def traced() -> list:
    return [bench("--trace"), bench("--trace", "1")]


@pytest.mark.parametrize("section, mode", [("end_to_end", 0), ("per_layer", 1)])
def test_every_metric_is_printed_with_its_unit(untraced, traced, section, mode):
    stdout = traced[0] if mode else untraced
    metrics = combined(stdout)["metrics"]
    assert list(metrics) == [w["name"] for w in DECLARED["workloads"]]
    lines = stdout.splitlines()
    for spec in DECLARED[section]:
        for name in metrics:
            assert metrics[name][spec["name"]]["unit"] == spec["unit"]
        printed = [ln for ln in lines if ln.startswith(f"{spec['name']} = ")]
        assert len(printed) == len(metrics)
        assert all(ln.endswith(f" {spec['unit']}") for ln in printed)


def test_two_traced_runs_give_identical_counts(traced):
    first, second = (combined(stdout)["metrics"] for stdout in traced)
    for name, metrics in first.items():
        counts = {k: v for k, v in metrics.items() if v["unit"] not in TIME_UNITS}
        assert counts == {k: second[name][k] for k in counts}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_output(name):
    w = workload(name, smoke=True)
    tracer = Tracer()
    plain = one_run(w, 7)[0]
    traced_out, _, run_s, _ = one_run(w, 7, tracer)
    assert traced_out == plain
    assert tracer.self_total_s() == pytest.approx(run_s, rel=0.02)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chunk-uniform", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(parent, [11.5, 11.6, 11.4], "lower", 0.1) == "worse"
    assert verdict(parent, [10.3, 10.2, 10.4], "lower", 0.1) == "unchanged"
    assert verdict(parent, [9.0, 9.1, 8.9], "lower", 0.1) == "better"
    assert verdict(parent, [8.5, 8.6, 8.4], "higher", 0.1) == "worse"
    assert verdict(parent, [11.0, 11.2, 10.9], "higher", 0.1) == "better"
    noisy = [6.0, 9.0, 11.0, 14.0]
    assert verdict(noisy, [9.5, 10.5], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [5.0, 5.5], "lower", 0.1) == "better"
    # Sub-millisecond set-up: 50% slower is still within the 20 ms floor.
    setup = [0.00035, 0.00036, 0.00034, 0.00035]
    assert verdict(setup, [0.0005, 0.00052], "lower", 0.25) == "worse"
    assert verdict(setup, [0.0005, 0.00052], "lower", 0.25, floor=0.02) == "unchanged"
    assert verdict(setup, [0.03, 0.031], "lower", 0.25, floor=0.02) == "worse"


def test_compare_reads_result_lists(tmp_path, capsys):
    def records(run_s):
        return [
            {"workload": "chunk-uniform", "seed": seed, "trace": 0,
             "metrics": {"run_s": {"value": value, "unit": "s"}}}
            for seed, value in enumerate(run_s)
        ]

    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(records([1.0, 1.01, 0.99])))
    change.write_text(json.dumps(records([1.3, 1.31, 1.29])))
    assert compare(parent, change) == 1
    assert "worse" in capsys.readouterr().out
    change.write_text(json.dumps(records([1.0, 1.02, 0.995])))
    assert compare(parent, change) == 0
