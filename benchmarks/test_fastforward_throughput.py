"""Throughput guard: the analytic fast-forward tier vs the chunk engine.

Lifetime measurement is the workload the fast-forward tier exists for:
driving a device to end-of-life takes ``n_lines x endurance`` user writes,
which the chunk engine pays for one by one while the analytic tier jumps
whole remap rounds.  Chunk throughput is measured on a bounded run (the
chunk engine cannot finish a lifetime at any realistic scale — that is the
point), the fast-forward leg runs to actual device failure, and the
recorded speedup is the ratio of *effective* user-writes-per-second.

Two tiers are recorded into ``BENCH_10.json`` at the repo root:

* ``lifetime_256k`` — 2^18 lines, reduced endurance 10^6: the acceptance
  gate (>= 50x over the chunk engine, usually >> 1000x).
* ``smoke_8m`` — 2^23 lines, endurance 10^5: twice the paper's 2^22-line
  device, at an odd address width, so the cycle-walked Feistel path runs;
  proves a device past paper size simulates to failure in one benchmark
  sitting.  The full E=10^8 run at the paper's size is the
  ``repro lifetime --paper-scale`` preset.

``make bench-ff`` refreshes the JSON; the committed copy documents the
reference machine.
"""

import json
import pathlib
import sys
import time

import pytest

from _bench_util import print_table
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim.engine import run_trace_fast
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController

SEED = 7
SCHEMES = ["start-gap", "rbsg", "security-rbsg"]
N_LINES = 1 << 18
ENDURANCE = 1_000_000
CHUNK_PROBE_WRITES = 400_000
SMOKE_LINES = 1 << 23
SMOKE_ENDURANCE = 100_000
BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_10.json"


def _controller(scheme_name, n_lines, endurance):
    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, SEED, {"interval": 100})
    return MemoryController(scheme, config)


def _chunk_probe(scheme_name):
    """User-writes-per-second of the chunk engine on a bounded run."""
    ctrl = _controller(scheme_name, N_LINES, 1e15)
    spec = TraceSpec(
        kind="uniform", n_lines=N_LINES, n_writes=CHUNK_PROBE_WRITES, seed=SEED
    )
    start = time.perf_counter()
    result = run_trace_fast(ctrl, spec, fast_forward="off")
    elapsed = time.perf_counter() - start
    assert result.user_writes == CHUNK_PROBE_WRITES
    return CHUNK_PROBE_WRITES / elapsed


def _fast_forward_lifetime(scheme_name, n_lines, endurance):
    ctrl = _controller(scheme_name, n_lines, endurance)
    spec = TraceSpec(kind="uniform", n_lines=n_lines, n_writes=None, seed=SEED)
    start = time.perf_counter()
    result = run_trace_fast(ctrl, spec, fast_forward="analytic")
    elapsed = time.perf_counter() - start
    assert result.failed, f"{scheme_name}: device should reach end of life"
    return result, elapsed


@pytest.fixture(scope="module")
def report():
    rows = {"lifetime_256k": {}, "smoke_8m": {}}
    yield rows
    document = {
        "benchmark": "fastforward_lifetime",
        "trace": "uniform",
        "seed": SEED,
        "python": sys.version.split()[0],
        "lifetime_256k": {
            "n_lines": N_LINES,
            "endurance": ENDURANCE,
            "chunk_probe_writes": CHUNK_PROBE_WRITES,
            "schemes": rows["lifetime_256k"],
        },
        "smoke_8m": {
            "n_lines": SMOKE_LINES,
            "endurance": SMOKE_ENDURANCE,
            "schemes": rows["smoke_8m"],
        },
    }
    BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n")
    print_table(
        f"fast-forward lifetime ({N_LINES} lines, E={ENDURANCE})",
        ["scheme", "chunk wr/s", "ff wr/s", "speedup"],
        [
            (name, row["chunk_writes_per_s"], row["ff_writes_per_s"],
             row["speedup"])
            for name, row in rows["lifetime_256k"].items()
        ],
    )


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_fast_forward_outruns_chunk_on_lifetime(report, scheme_name):
    chunk_wps = _chunk_probe(scheme_name)
    result, ff_s = _fast_forward_lifetime(scheme_name, N_LINES, ENDURANCE)

    ff_wps = result.user_writes / ff_s
    # Time the chunk engine *would* take for the same lifetime, at its
    # measured bounded-run throughput (it cannot run this to completion).
    extrapolated_chunk_s = result.user_writes / chunk_wps
    speedup = extrapolated_chunk_s / ff_s
    report["lifetime_256k"][scheme_name] = {
        "user_writes": result.user_writes,
        "lifetime_ns": round(result.elapsed_ns),
        "ff_s": round(ff_s, 4),
        "ff_writes_per_s": round(ff_wps),
        "chunk_writes_per_s": round(chunk_wps),
        "extrapolated_chunk_s": round(extrapolated_chunk_s, 1),
        "speedup": round(speedup, 1),
    }
    # Acceptance floor (any machine): the analytic tier must beat the
    # chunk engine by >= 50x on lifetime-to-failure.  The reference
    # machine clears this by several orders of magnitude.
    assert speedup >= 50.0, (
        f"fast-forward only {speedup:.1f}x over chunk for {scheme_name}"
    )


@pytest.mark.parametrize("scheme_name", ["security-rbsg"])
def test_paper_scale_smoke(report, scheme_name):
    """A 2^23-line device reaches end of life in one benchmark sitting."""
    result, ff_s = _fast_forward_lifetime(
        scheme_name, SMOKE_LINES, SMOKE_ENDURANCE
    )
    report["smoke_8m"][scheme_name] = {
        "user_writes": result.user_writes,
        "lifetime_ns": round(result.elapsed_ns),
        "ff_s": round(ff_s, 2),
        "ff_writes_per_s": round(result.user_writes / ff_s),
    }
    assert result.user_writes > SMOKE_LINES * SMOKE_ENDURANCE / 2
