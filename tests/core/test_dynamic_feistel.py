"""Tests for the Dynamic Feistel Network remapping engine (Figs. 8-10).

The load-bearing invariant: at *every* point of the gap walk, the algebraic
translation (Kc/Kp selected by the isRemap bit, park slot for the parked
line) must agree with where the data actually sits after executing the
returned copies — checked here against an explicit slot-content shadow.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.wearlevel.base import CopyMove, SwapMove


class ShadowMemory:
    """Executes DFN copies on explicit slot contents."""

    def __init__(self, n_lines):
        # Slot i initially holds line i's data (boot state: ENC maps are
        # equal to the identity only in data terms: slot ENC(la) holds la).
        self.slots = [None] * (n_lines + 1)

    def seed(self, mapper):
        for la in range(mapper.n_lines):
            self.slots[mapper.translate(la)] = la

    def apply(self, move):
        if move is None:
            return
        if isinstance(move, CopyMove):
            self.slots[move.dst] = self.slots[move.src]
        else:
            a, b = move.pa_a, move.pa_b
            self.slots[a], self.slots[b] = self.slots[b], self.slots[a]


def check_consistency(mapper, shadow):
    seen = set()
    for la in range(mapper.n_lines):
        slot = mapper.translate(la)
        assert shadow.slots[slot] == la, (
            f"LA {la}: translate says slot {slot}, but it holds "
            f"{shadow.slots[slot]}"
        )
        assert slot not in seen
        seen.add(slot)


class TestBootState:
    def test_boot_is_completed_round(self):
        mapper = DynamicFeistelMapper(16, n_stages=3, rng=0)
        assert mapper.round_complete()
        assert mapper.gap == mapper.spare_slot == 16
        assert mapper.round_count == 0

    def test_boot_translation_is_bijection(self):
        mapper = DynamicFeistelMapper(32, n_stages=5, rng=1)
        table = mapper.mapping_snapshot()
        assert sorted(table) == list(range(32))

    def test_domain_check(self):
        mapper = DynamicFeistelMapper(8, rng=0)
        with pytest.raises(ValueError):
            mapper.translate(8)


class TestRemappingRound:
    @pytest.mark.parametrize("n_lines,stages,seed", [
        (8, 3, 0), (8, 3, 1), (16, 5, 2), (32, 7, 3), (64, 2, 4),
    ])
    def test_consistency_through_rounds(self, n_lines, stages, seed):
        """Shadow-checked: three full rounds, every single movement."""
        mapper = DynamicFeistelMapper(n_lines, n_stages=stages, rng=seed)
        shadow = ShadowMemory(n_lines)
        shadow.seed(mapper)
        rounds_done = 0
        steps = 0
        while rounds_done < 3:
            shadow.apply(mapper.step())
            check_consistency(mapper, shadow)
            steps += 1
            if mapper.round_complete():
                rounds_done += 1
                # Mapping now fully under the new keys.
                for la in range(n_lines):
                    assert mapper.translate(la) == mapper.feistel_c.encrypt(la)
        # Each round costs at least ~N/2 triggers (2-cycles cost 1 swap).
        assert steps >= 3 * (n_lines // 2)

    def test_round_cost_matches_cycle_structure(self):
        """Round triggers: first cycle costs k0+1 copies (spare walk),
        every further non-fixed cycle of length k costs k-1 swaps, fixed
        points cost one free trigger each."""
        mapper = DynamicFeistelMapper(32, n_stages=3, rng=7)
        first = mapper.step()  # begins the round (keys rotated inside)
        perm = [
            int(mapper.feistel_p.encrypt(int(mapper.feistel_c.decrypt(s))))
            for s in range(32)
        ]
        seen = [False] * 32
        lengths = []
        for start in range(32):
            if seen[start]:
                continue
            length = 0
            s = start
            while not seen[s]:
                seen[s] = True
                s = perm[s]
                length += 1
            lengths.append((start, length))
        expected = 0
        for st, ln in lengths:
            if self._in_cycle(perm, st, ln, 0):
                expected += 1 if ln == 1 else ln + 1  # park + walk
            elif ln == 1:
                expected += 1  # fixed point, free
            else:
                expected += ln - 1  # swap chain
        steps = 1
        while not mapper.round_complete():
            mapper.step()
            steps += 1
        assert steps == expected

    @staticmethod
    def _in_cycle(perm, start, length, slot):
        s = start
        for _ in range(length):
            if s == slot:
                return True
            s = perm[s]
        return False

    def test_fixed_points_need_no_movement(self):
        """A fixed-point trigger returns None and marks the line remapped."""
        mapper = DynamicFeistelMapper(64, n_stages=2, rng=13)
        saw_fixed = False
        for _ in range(5 * 70):
            before = int(mapper._n_remapped)
            move = mapper.step()
            if move is None:
                saw_fixed = True
                after = int(mapper._n_remapped)
                assert after == 1 or after == before + 1
        # With 2 stages at 6 bits, fixed points are common enough to appear.
        assert saw_fixed

    def test_spare_wear_bounded_per_round(self):
        """At most one spare write per round — the endurance fix for the
        multi-cycle permutation structure."""
        mapper = DynamicFeistelMapper(64, n_stages=3, rng=14)
        spare_writes = 0
        rounds = 0
        while rounds < 10:
            move = mapper.step()
            if isinstance(move, CopyMove) and move.dst == mapper.spare_slot:
                spare_writes += 1
            if isinstance(move, SwapMove):
                assert mapper.spare_slot not in (move.pa_a, move.pa_b)
            if mapper.round_complete():
                rounds += 1
        assert spare_writes <= 10

    def test_all_lines_remapped_each_round(self):
        mapper = DynamicFeistelMapper(16, n_stages=4, rng=9)
        mapper.step()
        while not mapper.round_complete():
            mapper.step()
        assert mapper.is_remapped.all()

    def test_key_rotation(self):
        mapper = DynamicFeistelMapper(16, n_stages=4, rng=10)
        old_current = mapper.feistel_c
        mapper.step()  # round start
        assert mapper.feistel_p is old_current
        assert mapper.feistel_c is not old_current

    def test_round_counter(self):
        mapper = DynamicFeistelMapper(8, n_stages=3, rng=11)
        for expected in (1, 2, 3):
            mapper.step()
            while not mapper.round_complete():
                mapper.step()
            assert mapper.round_count == expected


class TestParkedLine:
    def test_parked_line_reads_from_spare(self):
        mapper = DynamicFeistelMapper(16, n_stages=3, rng=12)
        # Step until a cycle actually parks a line (fixed points don't).
        for _ in range(200):
            move = mapper.step()
            if mapper.parked_la is not None:
                break
        assert isinstance(move, CopyMove)
        assert move.dst == mapper.spare_slot
        parked = mapper.parked_la
        assert mapper.translate(parked) == mapper.spare_slot


class TestBatchedAPI:
    @pytest.mark.parametrize("n_lines,seed", [(64, 5), (128, 6)])
    def test_translate_many_matches_translate(self, n_lines, seed):
        """The one keyed pass agrees with the per-line rule after every
        trigger of two whole rounds.  128 lines is an odd address width,
        so the pass cycle-walks."""
        mapper = DynamicFeistelMapper(n_lines, n_stages=7, rng=seed)
        las = np.arange(n_lines)
        saw_parked = saw_displaced = False
        while mapper.round_count < 3:
            expected = [mapper.translate(la) for la in range(n_lines)]
            assert mapper.translate_many(las).tolist() == expected
            mapper.step()
            saw_parked |= mapper.parked_la is not None
            saw_displaced |= mapper.displaced_la is not None
        assert saw_parked and saw_displaced

    @pytest.mark.parametrize("n_lines", [256, 512])
    @pytest.mark.parametrize("rounds", [0, 1, 2, 50])
    def test_advance_rounds_matches_successive_rekeys(self, n_lines, rounds):
        """One key draw per jump: same key pair, round count and RNG
        stream as rotating the keys ``rounds`` times."""
        jump_rng = np.random.default_rng(21)
        step_rng = np.random.default_rng(21)
        mapper = DynamicFeistelMapper(n_lines, n_stages=7, rng=jump_rng)
        twin = DynamicFeistelMapper(n_lines, n_stages=7, rng=step_rng)
        previous = current = twin.feistel_c
        for _ in range(rounds):
            previous, current = current, current.rekeyed(step_rng)
        mapper.advance_rounds(rounds)
        assert mapper.feistel_c.keys == current.keys
        assert mapper.feistel_p.keys == previous.keys
        assert mapper.round_count == rounds
        assert mapper.round_complete()
        assert jump_rng.bit_generator.state == step_rng.bit_generator.state
        assert (jump_rng.integers(0, 1 << 16, size=5)
                == step_rng.integers(0, 1 << 16, size=5)).all()


@settings(max_examples=20, deadline=None)
@given(
    n_bits=st.integers(2, 6),
    stages=st.integers(1, 7),
    seed=st.integers(0, 2**31),
    n_steps=st.integers(1, 120),
)
def test_consistency_property(n_bits, stages, seed, n_steps):
    """Arbitrary step counts never break translation/data agreement."""
    n_lines = 1 << n_bits
    mapper = DynamicFeistelMapper(n_lines, n_stages=stages, rng=seed)
    shadow = ShadowMemory(n_lines)
    shadow.seed(mapper)
    for _ in range(n_steps):
        shadow.apply(mapper.step())
    check_consistency(mapper, shadow)


# ------------------------------------------------------------ walk order
#
# The shadow-memory checks above accept any consistent walk.  These pin the
# walk itself: the order of cycles and chain steps, and which movement each
# trigger makes.

#: The first 60 movements of ``DynamicFeistelMapper(n, n_stages=S,
#: rng=3)``, keyed by ``(n, S)``: ``cA,B`` copies slot A to slot B,
#: ``sA,B`` swaps them, ``-`` is a fixed point (no movement).
GOLDEN_WALKS = {
    (32, 7): (
        "c0,32 c6,0 c24,6 c7,24 c1,7 c14,1 c15,14 c2,15 c22,2 c26,22 c5,26 "
        "c19,5 c12,19 c13,12 c16,13 c4,16 c8,4 c23,8 c3,23 c30,3 c29,30 "
        "c18,29 c20,18 c10,20 c21,10 c17,21 c28,17 c31,28 c32,31 s27,9 "
        "s11,25 c0,32 c25,0 c8,25 c7,8 c13,7 c4,13 c17,4 c14,17 c18,14 "
        "c9,18 c10,9 c5,10 c15,5 c22,15 c19,22 c12,19 c32,12 s31,23 s31,26 "
        "s31,27 s31,16 s31,28 s31,3 s31,6 s31,29 s31,21 s31,24 s31,11 s31,2"
    ),
    (128, 7): (
        "c0,128 c127,0 c107,127 c7,107 c56,7 c82,56 c37,82 c115,37 c10,115 "
        "c91,10 c79,91 c85,79 c68,85 c52,68 c67,52 c22,67 c13,22 c124,13 "
        "c11,124 c78,11 c123,78 c14,123 c32,14 c81,32 c69,81 c16,69 c103,16 "
        "c88,103 c47,88 c35,47 c114,35 c5,114 c54,5 c51,54 c113,51 c38,113 "
        "c49,38 c76,49 c119,76 c6,119 c92,6 c43,92 c110,43 c80,110 c44,80 "
        "c87,44 c66,87 c58,66 c77,58 c112,77 c122,112 c18,122 c128,18 "
        "s1,118 s1,99 s1,20 s1,2 s1,55 s1,23 s1,74"
    ),
    (32, 2): (
        "c0,32 c15,0 c8,15 c9,8 c14,9 c1,14 c32,1 s2,3 s2,30 s2,27 s2,26 "
        "s2,31 s4,5 s6,7 s13,18 s13,17 s13,28 s13,25 s13,10 s12,11 s12,24 "
        "s12,29 s12,16 s12,19 s20,23 s21,22 c0,32 c8,0 c32,8 - - s26,2 "
        "s5,29 - s7,15 - - s18,10 - - s13,21 - - - s24,16 s23,31 - - - - - "
        "- c0,32 c1,0 c32,1 s3,2 s29,4 s29,13 s29,22 s15,6"
    ),
}


def spelled(move):
    if move is None:
        return "-"
    if isinstance(move, CopyMove):
        return f"c{move.src},{move.dst}"
    return f"s{move.pa_a},{move.pa_b}"


@pytest.mark.parametrize("n_lines,stages", sorted(GOLDEN_WALKS))
def test_walk_order_is_pinned(n_lines, stages):
    mapper = DynamicFeistelMapper(n_lines, n_stages=stages, rng=3)
    walk = " ".join(spelled(mapper.step()) for _ in range(60))
    assert walk == GOLDEN_WALKS[n_lines, stages]


# ------------------------------------------------------------ spans
#
# step_span pre-steps a span in the same loop as step; end_span keeps a
# prefix of it.  Whatever the span, the mapper must end where that many
# scalar steps put a twin.


def stepped(n_bits, stages, seed, pre, align):
    """A mapper after ``pre`` scalar steps, then on to the end of its
    round if ``align`` (so a span there opens on a key rotation)."""
    mapper = DynamicFeistelMapper(1 << n_bits, n_stages=stages, rng=seed)
    for _ in range(pre):
        mapper.step()
    while align and not mapper.round_complete():
        mapper.step()
    return mapper


def state(mapper):
    return (
        mapper.gap,
        mapper.parked_la,
        mapper.displaced_la,
        mapper.displaced_slot,
        mapper.is_remapped.tolist(),
        mapper.round_complete(),
        mapper.round_count,
        mapper.total_movements,
        mapper.feistel_c.keys,
        mapper.feistel_p.keys,
        mapper._rng.bit_generator.state,
    )


@settings(max_examples=60, deadline=None)
@given(
    n_bits=st.integers(2, 9),
    stages=st.integers(1, 7),
    seed=st.integers(0, 2**31),
    pre=st.integers(0, 300),
    align=st.booleans(),
    count=st.integers(0, 300),
    rotate=st.booleans(),
    share=st.floats(0, 1),
)
@example(n_bits=3, stages=7, seed=1, pre=0, align=True, count=40,
         rotate=True, share=0.5).via("a span that opens on a rotation")
@example(n_bits=3, stages=7, seed=1, pre=3, align=False, count=40,
         rotate=True, share=0.5).via("a span that stops before one")
def test_span_matches_scalar_steps(
    n_bits, stages, seed, pre, align, count, rotate, share
):
    """``step_span(count, rotate)`` then ``end_span(keep)``, ``keep`` a
    ``share`` of the steps taken, against ``keep`` scalar steps on a twin:
    the same movements (of every step the span took), registers,
    ``isRemap`` bits, counters, keys and generator state.  A span opening
    on a key rotation keeps that step (a chunk commits at least the write
    it opens on)."""
    mapper = stepped(n_bits, stages, seed, pre, align)
    twin = stepped(n_bits, stages, seed, pre, align)
    opens = mapper.round_complete() and rotate and count > 0
    steps = mapper.step_span(count, rotate)
    least = 1 if opens else 0
    keep = least + round(share * (steps.taken - least))

    moves, kept = [], None
    while len(moves) < count and not (
        twin.round_complete() and (moves or not rotate)
    ):
        if len(moves) == keep:
            kept = state(twin)
        moves.append(twin.step())
    if kept is None:
        kept = state(twin)
    assert steps.taken == len(moves)
    rows = zip(steps.index.tolist(), steps.swap.tolist(), *steps.slots.tolist())
    got = [(j, f"{'s' if swap else 'c'}{a},{b}") for j, swap, a, b in rows]
    want = [(j, spelled(move)) for j, move in enumerate(moves) if move is not None]
    assert got == want
    mapper.end_span(keep)
    assert state(mapper) == kept
