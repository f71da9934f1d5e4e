"""Tests for Start-Gap, including the paper's Fig. 2 walkthrough."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PCMConfig
from repro.pcm.timing import TimingModel
from repro.sim.fastforward import TraceSpec
from repro.wearlevel.base import CopyMove
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.startgap import StartGap, StartGapBank


class TestFig2Walkthrough:
    """Reproduce Fig. 2 exactly: 8 lines, one remapping round."""

    def test_initial_state(self):
        region = StartGapBank(1, 8, 1)
        assert region.gap[0] == 8
        assert [region.translate(0, i) for i in range(8)] == list(range(8))

    def test_first_movement(self):
        region = StartGapBank(1, 8, 1)
        move = region.gap_movement(0)
        assert move == CopyMove(7, 8)  # IA7's content moves into the gap line
        assert region.gap[0] == 7
        assert region.translate(0, 7) == 8
        assert region.translate(0, 6) == 6

    def test_eighth_movement_full_shift(self):
        region = StartGapBank(1, 8, 1)
        for _ in range(8):
            region.gap_movement(0)
        assert region.gap[0] == 0
        assert [region.translate(0, i) for i in range(8)] == list(range(1, 9))

    def test_round_wrap_increments_start(self):
        region = StartGapBank(1, 8, 1)
        for _ in range(8):
            region.gap_movement(0)
        move = region.gap_movement(0)  # the wrap movement
        assert move == CopyMove(8, 0)
        assert region.gap[0] == 8
        assert region.start[0] == 1
        # Fig. 2(d): IA7 now at slot 0, IA0 at slot 1, ...
        assert region.translate(0, 7) == 0
        assert [region.translate(0, i) for i in range(7)] == list(range(1, 8))


class TestStartGapRegion:
    """One region of a :class:`StartGapBank`, driven through the scalar path."""

    def test_interval_counts_writes(self):
        region = StartGapBank(1, 8, 4)
        assert region.record_write(0) is None
        assert region.record_write(0) is None
        assert region.record_write(0) is None
        assert region.record_write(0) is not None  # 4th write triggers

    def test_writes_until_next_movement(self):
        region = StartGapBank(1, 8, 5)
        assert region.remaining()[0] == 5
        region.record_write(0)
        assert region.remaining()[0] == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StartGapBank(1, 0, 1)
        with pytest.raises(ValueError):
            StartGapBank(1, 8, 0)

    def test_translate_range_check(self):
        region = StartGapBank(1, 8, 1)
        with pytest.raises(ValueError):
            region.translate(0, 8)

    @settings(max_examples=40, deadline=None)
    @given(
        n_lines=st.integers(2, 40),
        movements=st.integers(0, 200),
    )
    def test_translation_always_bijective_avoiding_gap(self, n_lines, movements):
        region = StartGapBank(1, n_lines, 1)
        for _ in range(movements):
            region.gap_movement(0)
        slots = [region.translate(0, i) for i in range(n_lines)]
        assert len(set(slots)) == n_lines
        assert region.gap[0] not in slots
        assert all(0 <= s <= n_lines for s in slots)

    def test_data_follows_movements(self):
        """Shadow check: slot contents always match translate()."""
        n = 10
        region = StartGapBank(1, n, 1)
        slots = [None] * (n + 1)
        for ia in range(n):
            slots[region.translate(0, ia)] = ia
        for _ in range(3 * (n + 1) + 5):
            move = region.gap_movement(0)
            slots[move.dst] = slots[move.src]
            for ia in range(n):
                assert slots[region.translate(0, ia)] == ia

    def test_full_rotation_returns_to_start(self):
        """After n*(n+1) movements every line has cycled home."""
        n = 6
        region = StartGapBank(1, n, 1)
        initial = [region.translate(0, i) for i in range(n)]
        for _ in range(n * (n + 1)):
            region.gap_movement(0)
        assert [region.translate(0, i) for i in range(n)] == initial


class TestStartGapScheme:
    def test_physical_size(self):
        assert StartGap(16, 4).n_physical == 17

    def test_record_write_returns_copy_moves(self):
        scheme = StartGap(8, 2)
        assert scheme.record_write(0) == []
        moves = scheme.record_write(0)
        assert len(moves) == 1
        assert isinstance(moves[0], CopyMove)

    def test_la_check(self):
        scheme = StartGap(8, 2)
        with pytest.raises(ValueError):
            scheme.translate(8)
        with pytest.raises(ValueError):
            scheme.record_write(-1)

    def test_lvf_bounded(self):
        """A hammered LA moves at least once per (n+1)*interval writes —
        the Line Vulnerability Factor of Start-Gap."""
        scheme = StartGap(8, 3)
        pa_history = {scheme.translate(5)}
        for _ in range((8 + 1) * 3):
            scheme.record_write(5)
            pa_history.add(scheme.translate(5))
        assert len(pa_history) >= 2

    @pytest.mark.parametrize("regions", [1, 4])
    def test_zipf_clip_follows_the_bank_interval(self, regions):
        """The analytic zipf round lets the hottest region complete at most
        one rotation, ``(size + 1) * interval`` writes, at the interval
        the bank remaps with: set on ``regions`` alone, the clip follows."""
        n = 256
        if regions == 1:
            scheme = StartGap(n, remap_interval=8)
        else:
            scheme = RegionBasedStartGap(n, n_regions=regions, remap_interval=8, rng=1)
        spec = TraceSpec(kind="zipf", n_lines=n, seed=1)
        timing = TimingModel(PCMConfig(n_lines=n))
        before = scheme.round_wear_profile(spec, 10**9, timing).writes
        scheme.regions.remap_interval = 32
        after = scheme.round_wear_profile(spec, 10**9, timing).writes
        assert 4 * before <= after < 4 * before + 4
