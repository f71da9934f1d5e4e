"""Throughput of real-trace replay: the bundled MSR-sample ``.rbt``.

The fixture drives ``run_trace_fast`` chunked and ``run_trace``
entry-wise on Security RBSG; the two must stay bit-identical, the same
contract ``test_engine_throughput.py`` holds the synthetic generators
to.  The printed table records the replay rate of each engine.  The
fixture is tiny (5354 writes), so setup noise dominates and no speedup
floor is asserted.

No pytest-benchmark fixture: each leg runs exactly once, timed with
``perf_counter``.
"""

import pathlib
import time

from _bench_util import print_table
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.traffic import open_trace_chunks, open_trace_entries

N_LINES = 1 << 12
SEED = 7
RBT = (pathlib.Path(__file__).resolve().parents[1]
       / "tests" / "data" / "msr_sample.rbt")


def _measure(fast):
    config = PCMConfig(n_lines=N_LINES, endurance=1e15)
    scheme = build_scheme("security-rbsg", N_LINES, SEED, {"interval": 100})
    controller = MemoryController(scheme, config)
    opener = open_trace_chunks if fast else open_trace_entries
    driver = run_trace_fast if fast else run_trace
    start = time.perf_counter()
    result = driver(controller, opener(RBT, n_lines=N_LINES))
    elapsed = time.perf_counter() - start
    return result, controller.array.wear.copy(), elapsed


def test_batched_rbt_replay_matches_scalar():
    scalar_result, scalar_wear, scalar_s = _measure(fast=False)
    batched_result, batched_wear, batched_s = _measure(fast=True)

    # Fast is only allowed to be fast because it is *exact*.
    assert batched_result == scalar_result
    assert (batched_wear == scalar_wear).all()
    assert scalar_result.user_writes > 0

    n = scalar_result.user_writes
    print_table(
        f"rbt replay, batched vs scalar (security-rbsg, {N_LINES} lines)",
        ["source", "writes", "scalar wr/s", "batched wr/s", "speedup"],
        [("rbt-replay", n, round(n / scalar_s), round(n / batched_s),
          round(scalar_s / batched_s, 2))],
    )
