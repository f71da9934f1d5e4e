"""``MemoryController.write_chunk``: whole chunks as windows of events.

The chunk engine's bit-identity suite (``test_fast_engine.py``) covers the
trace matrix at 2^8 lines; these tests pin what it does not: the
chunk-level return value, an odd address width (2^9 lines, where every
Feistel network cycle-walks), a DFN key rotation inside a chunk, a line
failure on each kind of event of a window, the ordered-event apply
against a scalar replay, and a malformed chunk or event list leaving no
partial state behind.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.timing import ALL0, ALL1, MIXED, LineData
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.sim.trace import uniform_random_chunks, uniform_random_trace
from repro.wearlevel import TwoLevelSecurityRefresh
from repro.wearlevel.base import CopyMove
from tests.sim.test_fast_engine import N_LINES, assert_identical

REGION_SCHEMES = [
    "start-gap",
    "rbsg",
    "sr",
    "multiway-sr",
    "two-level-sr",
    "security-rbsg",
]
#: An odd address width: the Feistel networks cycle-walk.
ODD_LINES = 1 << 9
ODD_WIDTH = [
    pytest.param(name, ODD_LINES, id=f"{name}-2^9")
    for name in ("rbsg", "security-rbsg")
]


def cases(names):
    """Each scheme at 2^8 lines (ids as before), plus the odd-width cases."""
    return [pytest.param(name, N_LINES, id=name) for name in names] + ODD_WIDTH


def assert_same_run(scalar, fast):
    """:func:`assert_identical` over every line of the device, plus the
    schemes' whole state: registers, counters and generator."""
    assert_identical(scalar, fast)
    scalar_scheme, fast_scheme = scalar[1].scheme, fast[1].scheme
    assert fast_scheme.mapping_snapshot() == scalar_scheme.mapping_snapshot()
    assert pickle.dumps(fast_scheme) == pickle.dumps(scalar_scheme)


def run_twins(name, n_lines, interval, endurance, seed, writes=4000):
    """Scalar and chunk runs of one uniform trace on twin controllers."""
    outcomes = []
    for fast in (False, True):
        scheme = build_scheme(name, n_lines, seed, {"interval": interval})
        controller = MemoryController(
            scheme, PCMConfig(n_lines=n_lines, endurance=endurance)
        )
        if fast:
            trace = uniform_random_chunks(n_lines, writes, rng=seed, batch=512)
            result = run_trace_fast(controller, trace)
        else:
            trace = uniform_random_trace(n_lines, writes, rng=seed)
            result = run_trace(controller, trace)
        outcomes.append((result, controller))
    return outcomes


@pytest.mark.parametrize("name, n_lines", cases(REGION_SCHEMES))
def test_chunk_equals_scalar_writes(name, n_lines):
    """One call writes the whole chunk: the latency is the sum of the
    scalar writes' latencies, ``out`` holds each of them, and every write
    is counted.  The chunk spans more than one Security Refresh key round,
    so the SR schemes swap inside it."""
    rng = np.random.default_rng(4)
    las = rng.integers(0, n_lines, size=2500)
    datas = rng.integers(0, len(LineData), size=2500).astype(np.int8)
    config = PCMConfig(n_lines=n_lines, endurance=1e9)
    chunked, scalar = (
        MemoryController(build_scheme(name, n_lines, 4, {"interval": 4}), config)
        for _ in range(2)
    )
    out = np.full(2500, np.nan)
    latency, n = chunked.write_chunk(las, datas, out=out)
    expected = [scalar.write(int(la), LineData(int(d))) for la, d in zip(las, datas)]
    assert (latency, n) == (sum(expected), 2500)
    assert out.tolist() == expected
    assert len(set(expected)) > 4  # writes with movements of several classes
    assert chunked.total_writes == scalar.total_writes
    assert np.array_equal(chunked.array.wear, scalar.array.wear)


@pytest.mark.parametrize("name", ["start-gap", "sr"])
def test_one_region_schemes_walk_their_bank(name, monkeypatch):
    """Start-Gap and SR walk a chunk on their region bank: chunks that
    cross many remaps at interval 2 never reach the scalar
    ``controller.write``, and match a scalar twin write for write."""
    rng = np.random.default_rng(9)
    las = rng.integers(0, N_LINES, size=3000)
    datas = rng.integers(0, len(LineData), size=3000).astype(np.int8)
    config = PCMConfig(n_lines=N_LINES, endurance=1e9)
    chunked, scalar = (
        MemoryController(build_scheme(name, N_LINES, 9, {"interval": 2}), config)
        for _ in range(2)
    )
    expected = [scalar.write(int(la), LineData(int(d))) for la, d in zip(las, datas)]

    def scalar_write(la, data):
        raise AssertionError(f"controller.write({la}, {data}) on the chunk engine")

    monkeypatch.setattr(chunked, "write", scalar_write)
    out = np.full(las.size, np.nan)
    for lo in range(0, las.size, 500):
        part = slice(lo, lo + 500)
        chunked.write_chunk(las[part], datas[part], out=out[part])
    assert out.tolist() == expected
    assert chunked.total_writes == scalar.total_writes
    assert np.array_equal(chunked.array.wear, scalar.array.wear)
    assert np.array_equal(chunked.array.data, scalar.array.data)
    assert pickle.dumps(chunked.scheme) == pickle.dumps(scalar.scheme)


def fails_in_movement(name, n_lines, interval, endurance, seed):
    """Scalar run to failure; True when a remap movement wore the line out
    (the failing PA is not where the failing user write lands)."""
    scheme = build_scheme(name, n_lines, seed, {"interval": interval})
    controller = MemoryController(
        scheme, PCMConfig(n_lines=n_lines, endurance=endurance)
    )
    trace = list(uniform_random_trace(n_lines, 4000, rng=seed))
    result = run_trace(controller, trace)
    if not result.failed:
        return False
    return result.failed_pa != scheme.translate(trace[result.user_writes - 1].la)


@pytest.mark.parametrize("name, n_lines", cases(REGION_SCHEMES))
def test_failure_inside_remap_movement(name, n_lines):
    """A line that dies during a movement is attributed to the write that
    triggered it, with the scalar run's wear, time, mapping and state."""
    hit = next(
        (
            (interval, endurance, seed)
            for interval, endurance, seed in itertools.product(
                [2, 4, 8], range(8, 24), [1, 2, 3]
            )
            if fails_in_movement(name, n_lines, interval, endurance, seed)
        ),
        None,
    )
    assert hit is not None, "no small run fails inside a remap movement"
    assert_same_run(*run_twins(name, n_lines, *hit))


#: Movements made so far by the inner level, and bank writes counted by
#: the outer level, of the two-level schemes.
INNER_MOVES = {
    "security-rbsg": lambda scheme: int(scheme.inners.total_movements.sum()),
    "two-level-sr": lambda scheme: int(scheme.inners.total_swaps.sum()),
}
OUTER_WRITES = {
    "security-rbsg": lambda scheme: scheme.outer_write_count,
    "two-level-sr": lambda scheme: scheme.outer.write_count.item(0),
}


def failing_event(name, interval, endurance, seed, writes=4000):
    """Scalar run to failure, one event at a time, as ``controller.write``
    orders them.  Returns which event wore a line out (``outer``,
    ``inner`` or ``user``), its write's offset in its window (a window
    starts at each outer trigger) and whether a movement ran earlier in
    that window; ``None`` when the run survives."""
    scheme = build_scheme(name, N_LINES, seed, {"interval": interval})
    array = PCMArray(
        PCMConfig(n_lines=N_LINES, endurance=endurance),
        n_physical=scheme.n_physical,
    )
    offset, moved = -1, False
    for entry in uniform_random_trace(N_LINES, writes, rng=seed):
        inner = INNER_MOVES[name](scheme)
        moves = scheme.record_write(entry.la)
        inner = INNER_MOVES[name](scheme) - inner
        offset += 1
        if OUTER_WRITES[name](scheme) % (2 * interval) == 0:
            offset, moved = 0, False
        split = len(moves) - inner
        events = [("outer", move) for move in moves[:split]]
        events += [("inner", move) for move in moves[split:]] + [("user", None)]
        for kind, move in events:
            try:
                if move is None:
                    array.write(scheme.translate(entry.la), entry.data)
                elif isinstance(move, CopyMove):
                    array.copy(move.src, move.dst)
                else:
                    array.swap(move.pa_a, move.pa_b)
            except LineFailure:
                return kind, offset, moved
            moved |= move is not None
    return None


FAILURE_CASES = {
    "inner-mid-window": lambda kind, offset, moved: kind == "inner" and offset > 0,
    "user-after-movement": lambda kind, offset, moved: kind == "user" and moved,
    "outer-at-window-start": lambda kind, offset, moved: kind == "outer",
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
@pytest.mark.parametrize("name", sorted(INNER_MOVES))
def test_failure_on_each_event_of_a_window(name, case):
    """The first failure falls on an inner movement mid-window, on a user
    write after a movement of its window, or on the outer movement that
    opens a window: the chunk run stops on the same event with the
    scalar run's wear, time, data, mapping and state."""
    want = FAILURE_CASES[case]
    hit = None
    for params in itertools.product([2, 4, 8], range(8, 40), [1, 2, 3, 4]):
        event = failing_event(name, *params)
        if event is not None and want(*event):
            hit = params
            break
    assert hit is not None, f"no small run fails as {case}"
    assert_same_run(*run_twins(name, N_LINES, *hit))


def test_key_rotation_inside_chunk():
    """Security RBSG at 2^9 lines: DFN key rotations land inside chunks,
    so the rest of the chunk is located again under the new key pair."""
    batch, rotations = 512, []
    outcomes = []
    for fast in (False, True):
        scheme = build_scheme("security-rbsg", ODD_LINES, 3, {"interval": 2})
        controller = MemoryController(
            scheme, PCMConfig(n_lines=ODD_LINES, endurance=1e9)
        )
        if fast:
            begin_round = scheme.outer._begin_round

            def rotate(begin_round=begin_round, scheme=scheme):
                rotations.append(scheme.outer_write_count % batch)
                return begin_round()

            scheme.outer._begin_round = rotate
            trace = uniform_random_chunks(ODD_LINES, 12_000, rng=3, batch=batch)
            result = run_trace_fast(controller, trace)
            del scheme.outer._begin_round
        else:
            trace = uniform_random_trace(ODD_LINES, 12_000, rng=3)
            result = run_trace(controller, trace)
        outcomes.append((result, controller))
    assert any(rotations), "no key rotation fell inside a chunk"
    assert_same_run(*outcomes)


# ------------------------------------------------------------ outer spans
#
# A two-level scheme's outer level is pre-stepped over a whole span: from
# a chunk's start (or a Security RBSG key rotation, or right after an SR
# key round) to the chunk's end.  A failure inside a span rolls back the
# steps the failing write did not reach.

#: Key rounds completed so far: the DFN's, and those of both SR levels.
ROUNDS = {
    "security-rbsg": lambda scheme: scheme.outer.round_count,
    "two-level-sr": lambda scheme: int(scheme.outer.round_count.item(0))
    + int(scheme.inners.round_count.sum()),
}


def span_failure(name, interval, endurance, seed, writes=4000, batch=512):
    """Scalar run to failure, one event at a time, as ``controller.write``
    orders them.  Returns the failing event's kind (``outer-copy``,
    ``outer-swap``, ``inner`` or ``user``) and how many outer steps ran
    before it in its span: a span starts at each chunk of ``batch``
    writes, at a DFN key rotation, and after a write that completes an SR
    key round.  ``None`` when the run survives."""
    scheme = build_scheme(name, N_LINES, seed, {"interval": interval})
    array = PCMArray(
        PCMConfig(n_lines=N_LINES, endurance=endurance),
        n_physical=scheme.n_physical,
    )
    steps = 0
    for index, entry in enumerate(uniform_random_trace(N_LINES, writes, rng=seed)):
        if index % batch == 0:
            steps = 0
        rounds, inner = ROUNDS[name](scheme), INNER_MOVES[name](scheme)
        moves = scheme.record_write(entry.la)
        inner = INNER_MOVES[name](scheme) - inner
        trigger = OUTER_WRITES[name](scheme) % (2 * interval) == 0
        if name == "security-rbsg" and ROUNDS[name](scheme) > rounds:
            steps = 0  # the rotation is the first step of its span
        earlier, steps = steps, steps + trigger
        split = len(moves) - inner
        events = [("outer", move) for move in moves[:split]]
        events += [("inner", move) for move in moves[split:]] + [("user", None)]
        for kind, move in events:
            try:
                if move is None:
                    array.write(scheme.translate(entry.la), entry.data)
                elif isinstance(move, CopyMove):
                    array.copy(move.src, move.dst)
                else:
                    array.swap(move.pa_a, move.pa_b)
            except LineFailure:
                if kind == "outer":
                    kind += "-copy" if isinstance(move, CopyMove) else "-swap"
                    return kind, earlier
                return kind, steps
        if name == "two-level-sr" and ROUNDS[name](scheme) > rounds:
            steps = 0
    return None


SPAN_FAILURES = [
    ("security-rbsg", "outer-copy"),
    ("security-rbsg", "outer-swap"),
    ("security-rbsg", "inner"),
    ("security-rbsg", "user"),
    ("two-level-sr", "outer-swap"),
    ("two-level-sr", "inner"),
    ("two-level-sr", "user"),
]


@pytest.mark.parametrize("name, kind", SPAN_FAILURES)
def test_failure_inside_a_span(name, kind):
    """The first failure falls on an outer copy or swap, an inner movement
    or a user write after earlier outer steps of the same span: the chunk
    run keeps the steps up to the failing write and rolls back the
    later ones, ending with the scalar run's results, wear, data and
    pickled scheme (mapper registers, ``isRemap``, generator)."""
    hit = None
    for params in itertools.product([2, 4, 8], range(8, 40), [1, 2, 3, 4]):
        event = span_failure(name, *params)
        if event is not None and event[0] == kind and event[1] > 0:
            hit = params
            break
    assert hit is not None, f"no small run fails on {kind} inside a span"
    assert_same_run(*run_twins(name, N_LINES, *hit))


def test_span_stops_at_key_rotation():
    """Security RBSG pre-steps no key rotation past a span's first write:
    a span ends before the rotating trigger, which opens the next one, so
    every generator draw happens at a span start."""
    batch, interval = 512, 4
    opened = []
    outcomes = []
    for fast in (False, True):
        scheme = build_scheme("security-rbsg", N_LINES, 5, {"interval": interval // 2})
        controller = MemoryController(scheme, PCMConfig(n_lines=N_LINES, endurance=1e9))
        if fast:
            begin_round = scheme.outer._begin_round

            def rotate(begin_round=begin_round, scheme=scheme):
                # The span's first write is the one outer_write_count
                # has not counted yet.
                opened.append(scheme.outer_write_count)
                return begin_round()

            scheme.outer._begin_round = rotate
            trace = uniform_random_chunks(N_LINES, 12_000, rng=5, batch=batch)
            result = run_trace_fast(controller, trace)
            del scheme.outer._begin_round
        else:
            trace = uniform_random_trace(N_LINES, 12_000, rng=5)
            result = run_trace(controller, trace)
        outcomes.append((result, controller))
    assert len(opened) > 5 and any(count % batch for count in opened)
    assert all((count + 1) % interval == 0 for count in opened)
    assert_same_run(*outcomes)


def test_outer_and_inner_key_rounds_on_one_write():
    """Two-level SR: when the outer level and an inner region complete a
    key round on the same write, the outer key is drawn first, as on the
    scalar path (both levels share one generator)."""
    writes = 600
    rng = np.random.default_rng(11)
    las = rng.integers(0, 16, size=writes)
    datas = rng.integers(0, len(LineData), size=writes).astype(np.int8)
    config = PCMConfig(n_lines=16, endurance=1e9)

    def make():
        return MemoryController(
            TwoLevelSecurityRefresh(16, 2, inner_interval=1, outer_interval=1, rng=11),
            config,
        )

    scalar, chunked = make(), make()
    both = 0
    for la, data in zip(las.tolist(), datas.tolist()):
        outer = scalar.scheme.outer.round_count.item(0)
        inner = int(scalar.scheme.inners.round_count.sum())
        scalar.write(la, LineData(data))
        both += (
            scalar.scheme.outer.round_count.item(0) > outer
            and int(scalar.scheme.inners.round_count.sum()) > inner
        )
    assert both >= 2
    for lo in range(0, writes, 200):
        chunked.write_chunk(las[lo : lo + 200], datas[lo : lo + 200])
    assert pickle.dumps(chunked.scheme) == pickle.dumps(scalar.scheme)
    assert np.array_equal(chunked.array.wear, scalar.array.wear)
    assert np.array_equal(chunked.array.data, scalar.array.data)


@pytest.mark.parametrize("name", sorted(INNER_MOVES))
def test_max_writes_cut_inside_a_span(name):
    """A run cut at ``max_writes`` mid-chunk walks only the writes before
    the cut: no outer step past it is kept."""
    outcomes = []
    for fast in (False, True):
        scheme = build_scheme(name, N_LINES, 6, {"interval": 2})
        controller = MemoryController(scheme, PCMConfig(n_lines=N_LINES, endurance=1e9))
        if fast:
            trace = uniform_random_chunks(N_LINES, 4000, rng=6, batch=512)
            result = run_trace_fast(controller, trace, max_writes=1237)
        else:
            result = run_trace(
                controller, uniform_random_trace(N_LINES, 4000, rng=6), max_writes=1237
            )
        outcomes.append((result, controller))
    assert outcomes[0][0].user_writes == 1237
    assert_same_run(*outcomes)


# ------------------------------------------------- ordered-event apply


def scalar_events(array, pas, datas, moves, out=None):
    """What ``controller.write`` does: each movement, then its user write;
    ``out`` gets each write's latency, its movements' included."""
    at, swap, a, b = moves
    latency, m = 0.0, 0
    for i in range(len(pas)):
        ns = 0.0
        try:
            while m < len(at) and at[m] <= i:
                move = array.swap if swap[m] else array.copy
                ns += move(int(a[m]), int(b[m]))
                m += 1
            ns += array.write(int(pas[i]), LineData(int(datas[i])))
        except LineFailure as failure:
            failure.chunk_index = i
            raise
        if out is not None:
            out[i] = ns
        latency += ns
    return latency


def as_moves(moves):
    """``[(at, swap, a, b), ...]`` as the arrays ``write_events`` takes."""
    columns = list(zip(*moves)) or [(), (), (), ()]
    return tuple(
        np.array(column, dtype=bool if k == 1 else np.int64)
        for k, column in enumerate(columns)
    )


def outcome(array, apply, n):
    """``apply(array, out)``'s latency or failure, the array's state, and
    the per-write latencies ``out`` holds (those before a failing write)."""
    out = np.full(n, np.nan)
    try:
        latency, failure = apply(array, out), None
    except LineFailure as exc:
        latency = None
        failure = (exc.pa, exc.chunk_index, exc.wear, exc.total_writes, exc.elapsed_ns)
    return (
        latency,
        failure,
        array.wear.tolist(),
        array.data.tolist(),
        array.total_writes,
        array.elapsed_ns,
        out[: n if failure is None else failure[1]].tolist(),
    )


ARRAYS = {
    "monolithic": lambda config: PCMArray(config, n_physical=16),
}


def assert_events_match(make, pas, datas, moves, before=()):
    """``write_events`` equals the scalar replay on twin arrays that first
    took the writes ``before``; returns the common outcome."""
    pas = np.array(pas, dtype=np.int64)
    datas = np.array([int(d) for d in datas], dtype=np.int8)
    moves = as_moves(moves)
    outcomes = []
    for apply in (
        lambda array, out: array.write_events(pas, datas, moves, out),
        lambda array, out: scalar_events(array, pas, datas, moves, out),
    ):
        array = make()
        for pa, data in before:
            array.write(pa, data)
        outcomes.append(outcome(array, apply, len(pas)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.fixture(params=sorted(ARRAYS))
def make_array(request):
    return lambda config=PCMConfig(n_lines=16, endurance=1e9): ARRAYS[
        request.param
    ](config)


class TestWriteEvents:
    """The ordered-event apply against a scalar replay of the same list."""

    def test_copy_reads_source_written_earlier_in_window(self, make_array):
        # Line 3 holds ALL1 from user write 0 when the copy runs, and the
        # second copy reads line 7 the first one just wrote.
        out = assert_events_match(
            make_array,
            [3, 5, 9],
            [ALL1, ALL0, MIXED],
            [(2, False, 3, 7), (2, False, 7, 11)],
        )
        assert out[3][7] == out[3][11] == ALL1

    def test_swap_chain_through_one_pivot(self, make_array):
        # A DFN swap chain: pivot 0 trades places with 4, then 8, then 12,
        # with user writes between the swaps.
        out = assert_events_match(
            make_array,
            [4, 1, 12, 2],
            [MIXED, ALL1, ALL0, ALL1],
            [(1, True, 0, 4), (1, True, 0, 8), (3, True, 0, 12)],
            before=[(0, ALL1), (8, MIXED), (12, ALL1)],
        )
        assert out[3][:13:4] == [ALL0, ALL1, MIXED, MIXED]

    def test_duplicate_pas(self, make_array):
        assert_events_match(
            make_array,
            [4, 4, 6, 4, 6, 4],
            [ALL1, ALL0, MIXED, ALL1, ALL0, MIXED],
            [(2, False, 4, 8), (3, True, 4, 6), (5, False, 6, 4)],
        )

    def test_single_write_with_movements(self, make_array):
        # One user write replays through the scalar calls.
        out = assert_events_match(
            make_array,
            [5],
            [MIXED],
            [(0, True, 1, 2), (0, False, 2, 5)],
            before=[(1, ALL1)],
        )
        assert out[6] == [1375.0 + 1125.0 + 1000.0]  # swap, copy, write

    def test_differential_writes_stay_vectorized(self, make_array, monkeypatch):
        config = PCMConfig(n_lines=16, endurance=1e9, differential_writes=True)
        pas = [2, 2, 3, 5, 2, 3]
        datas = [ALL1, ALL1, ALL0, ALL1, ALL0, ALL0]
        moves = [(1, False, 2, 5), (3, True, 2, 3), (5, False, 5, 2)]
        scalar = make_array(config)
        expected = outcome(
            scalar, lambda array, out: scalar_events(
                array, pas, [int(d) for d in datas], as_moves(moves), out
            ), len(pas),
        )
        array = make_array(config)
        for method in ("write", "copy", "swap"):
            monkeypatch.setattr(array, method, None)  # any scalar call fails
        got = outcome(
            array, lambda array, out: array.write_events(
                np.array(pas), np.array([int(d) for d in datas], np.int8),
                as_moves(moves), out,
            ), len(pas),
        )
        assert got == expected
        assert expected[2][2] < 5  # rewrites of identical content did not wear

    @pytest.mark.parametrize("endurance", [6, 7, 8, 1e9])
    def test_endurance_variation(self, endurance):
        config = PCMConfig(n_lines=16, endurance=endurance)
        rng = np.random.default_rng(int(endurance))
        pas = rng.integers(0, 16, size=60)
        datas = rng.integers(0, 3, size=60)
        at = np.sort(rng.integers(0, 60, size=20))
        moves = [
            (int(at[m]), bool(m % 2), int(m % 16), int((m * 5 + 3) % 16))
            for m in range(20)
        ]
        out = assert_events_match(
            lambda: PCMArray(config, endurance_variation=0.3, rng=5),
            pas, datas, moves,
        )
        assert (out[1] is not None) == (endurance < 1e9)

    @pytest.mark.parametrize("endurance", [3, 4, 5])
    def test_failure_mid_list(self, make_array, endurance):
        config = PCMConfig(n_lines=16, endurance=endurance)
        pas = [1, 2, 1, 2, 1, 2, 1, 2]
        moves = [(1, False, 1, 9), (3, True, 1, 9), (5, True, 2, 9), (7, False, 9, 1)]
        out = assert_events_match(
            lambda: make_array(config), pas, [ALL1] * 8, moves
        )
        assert out[1] is not None
        if endurance == 3:  # line 1's third wear is the swap before write 3
            assert out[1][:2] == (1, 3)

    def test_fault_injection_replays_scalar(self):
        config = PCMConfig(n_lines=16, endurance=1e9, verify_fail_base=0.2)
        pas, datas = [3, 5, 3, 9], [ALL1, ALL0, MIXED, ALL1]
        moves = [(1, False, 3, 7), (2, True, 5, 3)]
        calls = []
        arrays = []
        outs = []
        for fast in (True, False):
            array = PCMArray(config, n_physical=16, fault_rng=4)
            out = np.full(len(pas), np.nan)
            if fast:
                for name in ("write", "copy", "swap"):
                    method = getattr(array, name)

                    def counted(*args, method=method, name=name):
                        calls.append(name)
                        return method(*args)

                    setattr(array, name, counted)
                array.write_events(
                    np.array(pas), np.array([int(d) for d in datas], np.int8),
                    as_moves(moves), out,
                )
            else:
                scalar_events(
                    array, pas, [int(d) for d in datas], as_moves(moves), out
                )
            arrays.append(array)
            outs.append(out.tolist())
        assert calls == ["write", "copy", "write", "swap", "write", "write"]
        assert arrays[0].retry_events == arrays[1].retry_events
        assert arrays[0].wear.tolist() == arrays[1].wear.tolist()
        assert arrays[0].elapsed_ns == arrays[1].elapsed_ns
        assert outs[0] == outs[1]


def array_state(array):
    return array.wear.copy(), array.total_writes, array.elapsed_ns


@pytest.mark.parametrize(
    "make_array", [lambda config: PCMArray(config)], ids=["monolithic"]
)
def test_write_many_length_mismatch_changes_nothing(make_array):
    array = make_array(PCMConfig(n_lines=16, endurance=1e9))
    array.write_many(np.arange(4), np.ones(4, np.int8))
    before = array_state(array)
    with pytest.raises(ValueError, match="8 addresses but 3 data values"):
        array.write_many(np.arange(8), np.ones(3, np.int8))
    after = array_state(array)
    assert np.array_equal(after[0], before[0]) and after[1:] == before[1:]


@pytest.mark.parametrize(
    "n, at",
    [(0, [0]), (2, [2]), (2, [5]), (2, [-1]), (3, [2, 0])],
    ids=["no-writes", "at-end", "past-end", "negative", "descending"],
)
def test_write_events_bad_positions_change_nothing(n, at):
    # No scalar sequence puts a movement after the last user write, before
    # the first, or out of order.
    array = PCMArray(PCMConfig(n_lines=16, endurance=1e9))
    array.write_many(np.arange(4), np.full(4, int(ALL1), np.int8))
    wear, data = array.wear.copy(), array.data.copy()
    writes, elapsed = array.total_writes, array.elapsed_ns
    moves = as_moves([(m, False, 1, 9) for m in at])
    with pytest.raises(ValueError, match="movement positions"):
        array.write_events(np.arange(n) + 2, np.full(n, int(MIXED), np.int8), moves)
    assert np.array_equal(array.wear, wear) and np.array_equal(array.data, data)
    assert (array.total_writes, array.elapsed_ns) == (writes, elapsed)


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
