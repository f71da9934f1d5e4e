"""Region banks: the vector paths against per-region scalar replays.

The vector methods (``pending``/``advance``/``movement_wear``) and the
shared chunk walk must equal what ``k`` scalar ``record_write`` steps per
region do — registers, movement counters and, for :class:`SRBank`, the
generator state, since the analytic tier draws key rotations in one
batched call.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.wearlevel.base import spread_even, spread_exact, walk_windows
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


def walk_chunk(bank, twin, chunk, region_of, outer_interval, shift):
    """Drive :func:`walk_windows` over ``chunk`` like ``write_chunk`` does
    and check each run against a scalar replay of the same writes on
    ``twin``.

    ``region_of[(la + shift[0]) % size]`` is a write's region (-1: counted
    by no region); an outer trigger every ``outer_interval`` writes bumps
    ``shift[0]``, remapping every write's region, like an outer movement.
    Returns the regions of the inner triggers and the number of outer
    triggers met as boundary writes.
    """
    lines = region_of.size
    outer = {"bank": 0, "twin": 0}

    def locate(las):
        return region_of[(las + shift[0]) % lines], las % bank.size

    def translate(regions, locals_):
        return np.where(regions >= 0, bank.translate_many(regions, locals_), -1)

    def outer_remaining():
        return outer_interval - outer["bank"] % outer_interval

    def region(la):
        return int(region_of[(la + shift[0]) % lines])

    inner_fired, outer_fired = [], 0
    pos = 0
    for pas, n in walk_windows(
        bank,
        chunk,
        locate,
        translate,
        None if outer_interval is None else outer_remaining,
    ):
        expected = []
        for la in chunk[pos : pos + n].tolist():
            outer["twin"] += 1
            assert outer_interval is None or outer["twin"] % outer_interval
            r = region(la)
            if r >= 0:
                assert twin.record_write(r) is None
                assert twin.write_count[r] % twin.remap_interval
            expected.append(twin.translate(r, la % twin.size) if r >= 0 else -1)
        np.testing.assert_array_equal(pas, expected)
        np.testing.assert_array_equal(bank.write_count, twin.write_count)
        outer["bank"] += n
        pos += n
        if pos == chunk.size:
            continue  # the walk must end here
        # The boundary write, scalar on both: an outer trigger, an inner
        # trigger, or both.
        la = int(chunk[pos])
        outer["bank"] += 1
        outer["twin"] += 1
        fired = outer_interval is not None and outer["bank"] % outer_interval == 0
        if fired:
            outer_fired += 1
            shift[0] += 1
        r = region(la)
        if r >= 0:
            assert (bank.record_write(r) is None) == (twin.record_write(r) is None)
            if twin.write_count[r] % twin.remap_interval == 0:
                inner_fired.append(r)
                fired = True
        assert fired, "a boundary write must trigger a remap"
        pos += 1
    assert pos == chunk.size
    return inner_fired, outer_fired


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
        shift = [0]
        chunks = []
        pos = 0
        while pos < trace.size:
            size = int(rng.integers(0, 70))
            chunk = trace[pos : pos + size]
            chunks.append(
                walk_chunk(bank, twin, chunk, region_of, outer_interval, shift)
            )
            pos += chunk.size
        if kind == "sr":
            assert bank._rng.bit_generator.state == twin._rng.bit_generator.state
        for name in SG_REGISTERS if kind == "start-gap" else SR_REGISTERS:
            np.testing.assert_array_equal(getattr(bank, name), getattr(twin, name))
        return chunks

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_replay(self, kind, seed):
        chunks = self.replay(kind, 5, None, seed)
        assert sum(len(inner) for inner, _ in chunks) > 100

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_outer_limit_shorter_than_chunk(self, kind, seed):
        chunks = self.replay(kind, 5, 7, seed)
        # Several windows per chunk: outer triggers land inside chunks.
        assert max(outer for _, outer in chunks) >= 5

    @pytest.mark.parametrize("kind", ["start-gap", "sr"])
    def test_several_triggers_of_one_region_in_a_window(self, kind):
        chunks = self.replay(kind, 2, None, 2)
        assert max(
            max(np.bincount(inner, minlength=4)) for inner, _ in chunks if inner
        ) >= 5


@pytest.mark.parametrize(
    "name", ["rbsg", "multiway-sr", "two-level-sr", "security-rbsg", "start-gap"]
)
def test_consume_chunk_is_the_first_run(name):
    """``consume_chunk`` yields ``chunk_runs``' first run and leaves the
    scheme in the same state, including right before a trigger (n == 0)."""
    scheme = build_scheme(name, 64, 5, {"interval": 3, "regions": 4})
    rng = np.random.default_rng(5)
    seen_empty = False
    for _ in range(200):
        las = rng.integers(0, 64, size=int(rng.integers(0, 12)))
        twin = copy.deepcopy(scheme)
        pas, n = scheme.consume_chunk(las)
        runs = twin.chunk_runs(las)
        first = next(runs, (np.empty(0, dtype=np.int64), 0))
        runs.close()
        assert n == first[1]
        np.testing.assert_array_equal(pas, first[0])
        assert pickle.dumps(scheme) == pickle.dumps(twin)
        seen_empty |= n == 0 and las.size > 0
        if n < las.size:  # the boundary write, scalar, as the controller does
            scheme.record_write(int(las[n]))
    assert seen_empty


def test_spread_even_matches_spread_exact_per_region():
    totals = np.array([0, 1, 6, 7, 13, 70, 99])
    width = 7
    expected = np.concatenate(
        [spread_exact(np.full(width, t / width), int(t)) for t in totals]
    )
    np.testing.assert_array_equal(spread_even(totals, width), expected)
