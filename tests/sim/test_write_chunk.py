"""``MemoryController.write_chunk``: whole chunks, boundary writes included.

The chunk engine's bit-identity suite (``test_fast_engine.py``) covers the
trace matrix; these tests pin what it does not: the chunk-level return
value, a line failure inside a remap movement, and a malformed chunk
leaving no partial state behind.
"""

import itertools

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.array import PCMArray
from repro.pcm.sharded import ShardedPCMArray
from repro.pcm.timing import LineData
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.sim.trace import uniform_random_chunks, uniform_random_trace
from tests.sim.test_fast_engine import N_LINES, assert_identical

REGION_SCHEMES = ["rbsg", "multiway-sr", "two-level-sr", "security-rbsg"]


@pytest.mark.parametrize("name", REGION_SCHEMES + ["start-gap"])
def test_chunk_equals_scalar_writes(name):
    """One call writes the whole chunk: the latency is the sum of the
    scalar writes' latencies and every write is counted."""
    rng = np.random.default_rng(4)
    las = rng.integers(0, N_LINES, size=700)
    datas = rng.integers(0, len(LineData), size=700).astype(np.int8)
    config = PCMConfig(n_lines=N_LINES, endurance=1e9)
    chunked, scalar = (
        MemoryController(build_scheme(name, N_LINES, 4, {"interval": 4}), config)
        for _ in range(2)
    )
    latency, n = chunked.write_chunk(las, datas)
    expected = sum(
        scalar.write(int(la), LineData(int(d))) for la, d in zip(las, datas)
    )
    assert (latency, n) == (expected, 700)
    assert chunked.total_writes == scalar.total_writes
    assert np.array_equal(chunked.array.wear, scalar.array.wear)


def fails_in_movement(name, interval, endurance, seed):
    """Scalar run to failure; True when a remap movement wore the line out
    (the failing PA is not where the failing user write lands)."""
    scheme = build_scheme(name, N_LINES, seed, {"interval": interval})
    controller = MemoryController(
        scheme, PCMConfig(n_lines=N_LINES, endurance=endurance)
    )
    trace = list(uniform_random_trace(N_LINES, 4000, rng=seed))
    result = run_trace(controller, trace)
    if not result.failed:
        return False
    return result.failed_pa != scheme.translate(trace[result.user_writes - 1].la)


@pytest.mark.parametrize("name", REGION_SCHEMES)
def test_failure_inside_remap_movement(name):
    """A line that dies during a boundary write's movement is attributed
    to that write, with the scalar run's wear, time and mapping."""
    hit = next(
        (
            (interval, endurance, seed)
            for interval, endurance, seed in itertools.product(
                [2, 4, 8], range(8, 24), [1, 2, 3]
            )
            if fails_in_movement(name, interval, endurance, seed)
        ),
        None,
    )
    assert hit is not None, "no small run fails inside a remap movement"
    interval, endurance, seed = hit
    outcomes = []
    for fast in (False, True):
        scheme = build_scheme(name, N_LINES, seed, {"interval": interval})
        controller = MemoryController(
            scheme, PCMConfig(n_lines=N_LINES, endurance=endurance)
        )
        if fast:
            trace = uniform_random_chunks(N_LINES, 4000, rng=seed, batch=512)
            result = run_trace_fast(controller, trace)
        else:
            trace = uniform_random_trace(N_LINES, 4000, rng=seed)
            result = run_trace(controller, trace)
        outcomes.append((result, controller))
    assert_identical(*outcomes)


def array_state(array):
    return array.wear.copy(), array.total_writes, array.elapsed_ns


@pytest.mark.parametrize(
    "make_array",
    [
        lambda config: PCMArray(config),
        lambda config: ShardedPCMArray(config, n_shards=3),
    ],
    ids=["monolithic", "sharded"],
)
def test_write_many_length_mismatch_changes_nothing(make_array):
    array = make_array(PCMConfig(n_lines=16, endurance=1e9))
    array.write_many(np.arange(4), np.ones(4, np.int8))
    before = array_state(array)
    with pytest.raises(ValueError, match="8 addresses but 3 data values"):
        array.write_many(np.arange(8), np.ones(3, np.int8))
    after = array_state(array)
    assert np.array_equal(after[0], before[0]) and after[1:] == before[1:]


def test_write_chunk_length_mismatch_changes_nothing():
    scheme = build_scheme("rbsg", 64, 1, {"interval": 4})
    controller = MemoryController(scheme, PCMConfig(n_lines=64, endurance=1e9))
    controller.write_chunk(np.arange(10), np.ones(10, np.int8))
    counts = scheme.regions.write_count.copy()
    before = array_state(controller.array)
    with pytest.raises(ValueError, match="20 addresses but 5 data values"):
        controller.write_chunk(np.arange(20), np.ones(5))
    after = array_state(controller.array)
    assert np.array_equal(scheme.regions.write_count, counts)
    assert np.array_equal(after[0], before[0]) and after[1:] == before[1:]
