"""Region banks: the vector paths against per-region scalar replays.

The vector methods (``pending``/``advance``/``movement_wear``) and the
shared chunk split must equal what ``k`` scalar ``record_write`` steps per
region do — registers, movement counters and, for :class:`SRBank`, the
generator state, since the analytic tier draws key rotations in one
batched call.
"""

import copy

import numpy as np
import pytest

from repro.wearlevel.base import spread_even, spread_exact, split_at_trigger
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


class TestSplitAtTrigger:
    """The shared chunk split equals a scalar replay of the same writes."""

    @pytest.mark.parametrize(
        "make_bank",
        [lambda: StartGapBank(4, 8, 5), lambda: SRBank(4, 8, 5, rng=3)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_replay(self, make_bank, seed):
        rng = np.random.default_rng(seed)
        n_lines = 40
        # Region of each write; -1 = counted by no region (a spare slot).
        region_of = rng.integers(-1, 4, size=n_lines)
        region_of[:4] = [-1, 0, 1, 2]

        def locate(las):
            return region_of[las], las % 8

        bank, twin = make_bank(), make_bank()
        trace = rng.integers(0, n_lines, size=3000)
        pos = 0
        while pos < trace.size:
            chunk = trace[pos : pos + 64]
            limit = min(chunk.size, int(rng.integers(0, 70)))
            pas, n = split_at_trigger(
                bank,
                chunk,
                limit,
                lambda la: int(region_of[la]),
                locate,
                lambda regions, locals_: regions * 100 + locals_,
            )
            # Scalar replay: the prefix stops before the first write whose
            # region counter would fire, and never runs past the limit or
            # the scan-window cap (uncounted writes can exhaust the window).
            cap = min(limit, int(twin.remaining().sum()))
            expected = 0
            while expected < cap:
                r = int(region_of[chunk[expected]])
                if r >= 0 and twin.remaining()[r] == 1:
                    break
                if r >= 0:
                    assert twin.record_write(r) is None
                expected += 1
            assert n == expected
            prefix = chunk[:n]
            np.testing.assert_array_equal(pas, region_of[prefix] * 100 + prefix % 8)
            np.testing.assert_array_equal(bank.write_count, twin.write_count)
            pos += n
            if n == 0 and limit > 0:
                # The trigger write goes through the scalar path on both.
                r = int(region_of[trace[pos]])
                assert r >= 0
                bank.record_write(r)
                twin.record_write(r)
                pos += 1
        assert bank.write_count.sum() == (region_of[trace] >= 0).sum()


def test_spread_even_matches_spread_exact_per_region():
    totals = np.array([0, 1, 6, 7, 13, 70, 99])
    width = 7
    expected = np.concatenate(
        [spread_exact(np.full(width, t / width), int(t)) for t in totals]
    )
    np.testing.assert_array_equal(spread_even(totals, width), expected)
