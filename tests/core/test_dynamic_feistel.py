"""Tests for the Dynamic Feistel Network remapping engine (Figs. 8-10).

The load-bearing invariant: at *every* point of the gap walk, the algebraic
translation (Kc/Kp selected by the isRemap bit, park slot for the parked
line) must agree with where the data actually sits after executing the
returned copies — checked here against an explicit slot-content shadow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
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
