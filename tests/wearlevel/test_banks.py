"""Region banks: the vector paths against per-region scalar replays.

The vector methods (``pending``/``advance``/``movement_wear``) and the
shared chunk walk (each window's movements and physical addresses in
closed form) must equal what ``k`` scalar ``record_write`` steps per
region do — registers, movement counters and, for :class:`SRBank`, the
generator state, since the analytic tier draws key rotations in one
batched call.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.tasks import build_scheme
from repro.wearlevel.base import (
    RADIX_MIN,
    Span,
    SwapMove,
    grouped_cumcount,
    spread_even,
    spread_exact,
    stable_order,
    static_span,
    walk_windows,
)
from repro.wearlevel.security_refresh import SRBank
from repro.wearlevel.startgap import StartGapBank

SG_REGISTERS = ("start", "gap", "write_count", "total_movements")
SR_REGISTERS = (
    "keyc", "keyp", "crp", "write_count", "round_count", "total_swaps",
)


def scalar_writes(bank, writes):
    """Replay ``writes[r]`` scalar writes per region, region by region."""
    moves = []
    for r, count in enumerate(writes):
        for _ in range(int(count)):
            move = bank.record_write(r)
            if move is not None:
                moves.append(move)
    return moves


def assert_same_registers(bank, twin, names):
    for name in names:
        np.testing.assert_array_equal(
            getattr(bank, name), getattr(twin, name), err_msg=name
        )


class TestStartGapBank:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_advance_matches_scalar_steps(self, seed):
        rng = np.random.default_rng(seed)
        bank = StartGapBank(5, 6, 3)
        scalar_writes(bank, rng.integers(0, 40, size=5))  # off-boot state
        twin = copy.deepcopy(bank)
        writes = rng.integers(0, 200, size=5)
        writes[2] = 0
        movements = bank.pending(writes)
        wear = bank.movement_wear(movements)
        bank.advance(writes)
        moves = scalar_writes(twin, writes)
        assert_same_registers(bank, twin, SG_REGISTERS)
        assert int(movements.sum()) == len(moves)
        exact = np.bincount([m.dst for m in moves], minlength=5 * 7)
        np.testing.assert_array_equal(wear, exact)

    def test_slots_are_bank_level(self):
        bank = StartGapBank(3, 4, 1)
        bank.record_write(2)
        assert bank.translate(2, 3) == 2 * 5 + 4  # moved into region 2's gap
        np.testing.assert_array_equal(
            bank.translate_many(np.array([0, 2]), np.array([3, 3])), [3, 14]
        )


class TestSRBank:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boot_keys_match_scalar_draws(self, seed):
        bank = SRBank(7, 16, 4, rng=seed)
        gen = np.random.default_rng(seed)
        keys = [int(gen.integers(0, 16)) for _ in range(7)]
        assert bank.keyc.tolist() == keys == bank.keyp.tolist()
        assert bank._rng.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_advance_matches_scalar_steps(self, seed):
        rng = np.random.default_rng(seed)
        # size 4: whole rounds are 8 writes, so equal-key rounds occur.
        bank = SRBank(6, 4, 2, rng=seed)
        scalar_writes(bank, rng.integers(0, 30, size=6))  # off-boot state
        twin = copy.deepcopy(bank)
        writes = rng.integers(0, 90, size=6)
        writes[1] = 0
        writes[4] = 1
        triggers = bank.pending(writes)
        bank.advance(writes)
        scalar_writes(twin, writes)
        assert_same_registers(bank, twin, SR_REGISTERS)
        assert bank._rng.bit_generator.state == twin._rng.bit_generator.state
        assert (triggers > 2 * 4).any()  # some region turns several rounds

    def test_expected_swap_wear(self):
        bank = SRBank(2, 8, 1, rng=0)
        scalar_writes(bank, [8, 0])  # region 0 leaves its boot round
        assert bank.keyc[0] != bank.keyp[0]
        assert bank.keyc[1] == bank.keyp[1]  # boot round: nothing moves
        swaps = bank.expected_swaps(np.array([8, 8]))
        np.testing.assert_array_equal(swaps, [4.0, 0.0])
        wear = bank.movement_wear(swaps)
        np.testing.assert_array_equal(wear, [1.0] * 8 + [0.0] * 8)


SPARE = 999


def outer_ends(fired, size):
    """The located ends of outer trigger number ``fired``: even triggers
    swap two lines of two regions, odd ones copy the spare (region -1)
    into a line."""
    if fired % 2 == 0:
        return True, (fired % 4, 1), ((fired + 1) % 4, 2)
    return False, (-1, 0), (fired % 4, fired % size)


def walk_chunk(bank, twin, chunk, region_of, outer_interval, shift, cut=None):
    """Drive :func:`walk_windows` over ``chunk`` like ``write_chunk`` does
    and check each window against a scalar replay of the same writes on
    ``twin``.

    ``region_of[(la + shift) % size]`` is a write's region (-1: counted by
    no region, physical line ``SPARE``); an outer trigger every
    ``outer_interval`` writes bumps the shift, remapping every write's
    region like an outer movement, and moves the lines of
    :func:`outer_ends`.  The span pre-steps every trigger to the chunk's
    end (``shift[0]``) and rolls back those a commit does not reach; the
    replay steps its own (``shift[1]``).  ``cut`` commits
    only the first ``cut`` writes of the first window that long, as after
    a line failure, and abandons the chunk.  Returns the regions of the
    inner movements, the number of outer triggers and the writes walked.
    """
    lines = region_of.size
    outer = {"bank": 0, "twin": 0, "fired": 0}

    def region(la):
        return int(region_of[(la + shift[1]) % lines])

    def span(lo):
        las = chunk[lo:]
        first = outer_interval - 1 - outer["bank"] % outer_interval
        at = np.arange(first, las.size, outer_interval)
        epoch = np.searchsorted(at, np.arange(las.size), side="right")
        start, fired = shift[0], outer["fired"]
        steps = [outer_ends(start + j, bank.size) for j in range(at.size)]
        swap = [step[0] for step in steps]
        ends = np.array([step[1:] for step in steps], dtype=np.int64).reshape(-1, 2, 2)
        ends = ends.transpose(2, 1, 0).reshape(2, -1)  # (regions, locals_): a ends, b ends
        shift[0] += at.size  # pre-step every trigger
        outer["fired"] += at.size

        def commit(k):
            kept = int(np.count_nonzero(at < k))
            shift[0], outer["fired"] = start + kept, fired + kept
            outer["bank"] += k

        return Span(
            region_of[(las + start + epoch) % lines],
            las % bank.size,
            at,
            np.array(swap, dtype=bool),
            (ends[0], ends[1]),
            commit,
        )

    if outer_interval is None:
        regions = region_of[chunk % lines]
        located = static_span(regions, chunk % bank.size)
        walk = walk_windows(bank, chunk.size, located, spare_pa=SPARE)
    else:
        lead = outer["bank"] % outer_interval == outer_interval - 1
        walk = walk_windows(bank, chunk.size, span, lead, spare_pa=SPARE)
    inner_fired = []
    pos = 0
    for window in walk:
        n = window.pas.size
        k = n if cut is None or n < cut else cut
        expected_pas, expected_moves = [], []
        for i, la in enumerate(chunk[pos : pos + k].tolist()):
            outer["twin"] += 1
            if outer_interval is not None and outer["twin"] % outer_interval == 0:
                swap, *ends = outer_ends(shift[1], twin.size)
                pas = [SPARE if r < 0 else twin.translate(r, local) for r, local in ends]
                expected_moves.append((i, swap, *pas))
                shift[1] += 1
            r = region(la)
            if r >= 0:
                move = twin.record_write(r)
                if move is not None:
                    inner_fired.append(r)
                    if isinstance(move, SwapMove):
                        expected_moves.append((i, True, move.pa_a, move.pa_b))
                    else:
                        expected_moves.append((i, False, move.src, move.dst))
            expected_pas.append(twin.translate(r, la % twin.size) if r >= 0 else SPARE)
        np.testing.assert_array_equal(window.pas[:k], expected_pas)
        got = list(zip(*(column.tolist() for column in window.moves)))
        assert [move for move in got if move[0] < k] == expected_moves
        window.commit(k)
        names = SG_REGISTERS if isinstance(bank, StartGapBank) else SR_REGISTERS
        assert_same_registers(bank, twin, names)
        assert outer_interval is None or shift[0] == shift[1]
        pos += k
        if k < n:
            break
    assert cut is not None or pos == chunk.size
    assert outer_interval is None or outer["bank"] == outer["twin"]
    return inner_fired, outer["fired"], pos


class TestWalkWindows:
    """The shared chunk walk equals a scalar replay of the same writes."""

    BANKS = {
        "start-gap": lambda interval: StartGapBank(4, 8, interval),
        "sr": lambda interval: SRBank(4, 8, interval, rng=3),
    }

    def replay(self, kind, interval, outer_interval, seed, n_writes=3000):
        rng = np.random.default_rng(seed)
        n_lines = 40
        # Region of each write; -1 = counted by no region (a spare slot).
        region_of = rng.integers(-1, 4, size=n_lines)
        region_of[:4] = [-1, 0, 1, 2]
        bank, twin = self.BANKS[kind](interval), self.BANKS[kind](interval)
        trace = rng.integers(0, n_lines, size=n_writes)
        shift = [0, 0]  # the walk's outer shift, the replay's
        chunks = []
        pos = 0
        while pos < trace.size:
            size = int(rng.integers(0, 70))
            cut = int(rng.integers(1, 40)) if rng.random() < 0.3 else None
            chunk = trace[pos : pos + size]
            chunks.append(
                walk_chunk(bank, twin, chunk, region_of, outer_interval, shift, cut)
            )
            pos += chunks[-1][2]
        if kind == "sr":
            assert bank._rng.bit_generator.state == twin._rng.bit_generator.state
        for name in SG_REGISTERS if kind == "start-gap" else SR_REGISTERS:
            np.testing.assert_array_equal(getattr(bank, name), getattr(twin, name))
        return chunks

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_replay(self, kind, seed):
        chunks = self.replay(kind, 5, None, seed)
        assert sum(len(inner) for inner, _, _ in chunks) > 100

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_outer_limit_shorter_than_chunk(self, kind, seed):
        """Outer triggers land inside chunks: each span pre-steps several,
        every write is located in its own epoch, each outer movement goes
        through the inner mapping at its position, and a commit cut short
        rolls back the steps it does not reach."""
        chunks = self.replay(kind, 5, 7, seed)
        assert max(outer for _, outer, _ in chunks) >= 5

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    def test_several_triggers_of_one_region_in_a_window(self, kind):
        chunks = self.replay(kind, 2, None, 2)
        assert max(
            max(np.bincount(inner, minlength=4)) for inner, _, _ in chunks if inner
        ) >= 5


@pytest.mark.parametrize(
    "name", ["rbsg", "multiway-sr", "two-level-sr", "security-rbsg", "start-gap"]
)
def test_consume_chunk_is_the_first_run(name):
    """``consume_chunk`` counts the writes of ``chunk_runs``' first window
    before its first movement: they move nothing, translate as on the
    scalar path, and leave the scheme in the scalar state (including
    ``n == 0`` right before a movement or an outer trigger)."""
    scheme = build_scheme(name, 64, 5, {"interval": 3, "regions": 4})
    twin = copy.deepcopy(scheme)
    rng = np.random.default_rng(5)
    seen_empty = False
    for _ in range(200):
        las = rng.integers(0, 64, size=int(rng.integers(0, 12)))
        pas, n = scheme.consume_chunk(las)
        expected = []
        for la in las[:n].tolist():
            assert twin.record_write(la) == []
            expected.append(twin.translate(la))
        np.testing.assert_array_equal(pas, expected)
        assert pickle.dumps(scheme) == pickle.dumps(twin)
        seen_empty |= n == 0 and las.size > 0
        if n < las.size:  # the next write, scalar on both
            assert scheme.record_write(int(las[n])) == twin.record_write(int(las[n]))
    assert seen_empty


@pytest.mark.parametrize("name", ["two-level-sr", "security-rbsg"])
def test_chunk_opening_on_an_outer_trigger_changes_nothing(name):
    """When the next write is an outer trigger, ``chunk_runs`` opens with
    an empty window, so ``consume_chunk`` counts no write and leaves the
    scheme, its generator included, as it was."""
    scheme = build_scheme(name, 64, 5, {"interval": 3, "regions": 4})
    las = np.random.default_rng(5).integers(0, 64, size=40)
    for la in las.tolist()[:5]:  # the outer interval is 6: one write short
        scheme.record_write(la)
    before = pickle.dumps(scheme)
    pas, n = scheme.consume_chunk(las)
    assert (pas.size, n) == (0, 0)
    assert pickle.dumps(scheme) == before
    assert next(scheme.chunk_runs(las)).pas.size == 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3 * RADIX_MIN),
    st.sampled_from([1, 2, (1 << 15) - 2, (1 << 15) - 1, 1 << 15, 1 << 20]),
    st.integers(-1, 3),
    st.integers(0, 2**32 - 1),
)
def test_grouped_cumcount_matches_int64_stable_sort(size, span, low, seed):
    """Keys whose range fits in 15 bits sort as int16 by radix; the order,
    and each element's occurrence number, are those of the int64 stable
    sort, with region -1, sizes on both sides of ``RADIX_MIN`` and ranges
    on both sides of the 15-bit cutoff."""
    groups = low + np.random.default_rng(seed).integers(0, span + 1, size=size)
    groups[:2] = [low, low + span]  # the full range
    np.testing.assert_array_equal(
        stable_order(groups), np.argsort(groups, kind="stable")
    )
    seen = {}
    expected = []
    for g in groups.tolist():
        expected.append(seen.get(g, 0))
        seen[g] = expected[-1] + 1
    np.testing.assert_array_equal(grouped_cumcount(groups), expected)


def test_spread_even_matches_spread_exact_per_region():
    totals = np.array([0, 1, 6, 7, 13, 70, 99])
    width = 7
    expected = np.concatenate(
        [spread_exact(np.full(width, t / width), int(t)) for t in totals]
    )
    np.testing.assert_array_equal(spread_even(totals, width), expected)
