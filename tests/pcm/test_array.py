"""Tests for the wear-tracked PCM array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.timing import ALL0, ALL1, MIXED


def make_array(n_lines=16, endurance=1e12, n_physical=None, **kwargs):
    return PCMArray(
        PCMConfig(n_lines=n_lines, endurance=endurance),
        n_physical=n_physical,
        **kwargs,
    )


class TestConstruction:
    def test_defaults(self):
        array = make_array()
        assert array.n_physical == 16
        assert array.total_writes == 0
        assert array.elapsed_ns == 0.0
        assert not array.failed

    def test_spare_lines(self):
        assert make_array(n_physical=20).n_physical == 20

    def test_rejects_too_few_physical(self):
        with pytest.raises(ValueError):
            make_array(n_physical=8)

    def test_initial_data(self):
        array = make_array(initial_data=ALL1)
        assert array.peek(3) == ALL1


class TestWriteReadCopySwap:
    def test_write_updates_data_and_wear(self):
        array = make_array()
        latency = array.write(5, ALL1)
        assert latency == 1000.0
        assert array.peek(5) == ALL1
        assert array.wear[5] == 1
        assert array.total_writes == 1

    def test_write_latency_by_class(self):
        array = make_array()
        assert array.write(0, ALL0) == 125.0
        assert array.write(0, MIXED) == 1000.0

    def test_read_advances_time_not_wear(self):
        array = make_array()
        array.write(2, ALL1)
        before = array.elapsed_ns
        data = array.read(2)
        assert data == ALL1
        assert array.elapsed_ns == before + 125.0
        assert array.wear[2] == 1  # unchanged

    def test_copy_moves_data_and_wears_destination(self):
        array = make_array()
        array.write(1, ALL1)
        latency = array.copy(1, 9)
        assert latency == 1125.0  # read + SET
        assert array.peek(9) == ALL1
        assert array.wear[9] == 1
        assert array.wear[1] == 1  # source only read

    def test_copy_all0_latency(self):
        array = make_array()
        assert array.copy(0, 1) == 250.0

    def test_swap_exchanges_and_wears_both(self):
        array = make_array()
        array.write(0, ALL1)
        latency = array.swap(0, 7)
        assert latency == 1375.0
        assert array.peek(0) == ALL0
        assert array.peek(7) == ALL1
        assert array.wear[0] == 2  # write + swap
        assert array.wear[7] == 1

    def test_elapsed_accumulates(self):
        array = make_array()
        array.write(0, ALL1)
        array.write(1, ALL0)
        array.copy(0, 2)
        assert array.elapsed_ns == 1000.0 + 125.0 + 1125.0


class TestFailure:
    def test_raises_at_endurance(self):
        array = make_array(endurance=3)
        array.write(4, ALL0)
        array.write(4, ALL0)
        with pytest.raises(LineFailure) as info:
            array.write(4, ALL0)
        assert info.value.pa == 4
        assert info.value.wear == 3
        assert array.failed
        assert array.first_failure is info.value

    def test_other_lines_unaffected(self):
        array = make_array(endurance=5)
        for _ in range(4):
            array.write(0, ALL0)
        array.write(1, ALL0)  # fine

    def test_no_raise_mode_records_failure(self):
        array = make_array(endurance=2, raise_on_failure=False)
        for _ in range(5):
            array.write(3, ALL0)
        assert array.failed
        assert array.first_failure.pa == 3
        assert array.wear[3] == 5

    def test_swap_can_fail(self):
        array = make_array(endurance=1)
        with pytest.raises(LineFailure):
            array.swap(0, 1)


def array_state(array):
    return (
        array.wear.tolist(), array.data.tolist(), array.total_writes,
        array.elapsed_ns,
    )


class TestApplyWearBulk:
    """The fast-forward commit point: all of a dense increment, or none."""

    def test_commit_advances_wear_writes_and_time(self):
        array = make_array(endurance=100)
        counts = np.arange(16, dtype=np.int64)
        assert array.apply_wear_bulk(counts, 123.0)
        assert array.wear.tolist() == counts.tolist()
        assert array.total_writes == int(counts.sum())
        assert array.elapsed_ns == 123.0

    @pytest.mark.parametrize("variation", [0.0, 0.2])
    def test_refused_commit_changes_nothing(self, variation):
        array = make_array(endurance=100, endurance_variation=variation, rng=3)
        assert array.apply_wear_bulk(np.full(16, 10, dtype=np.int64), 5.0)
        before = array_state(array)
        counts = np.zeros(16, dtype=np.int64)
        counts[0] = 1
        # Line 15 alone reaches its endurance.
        counts[15] = int(np.ceil(array.remaining_endurance()[15]))
        assert not array.apply_wear_bulk(counts, 7.0)
        assert array_state(array) == before
        counts[15] -= 1  # one short of it commits
        assert array.apply_wear_bulk(counts, 7.0)

    @pytest.mark.parametrize(
        "counts", [np.zeros(15, np.int64), np.zeros((16, 1), np.int64)]
    )
    def test_rejects_wrong_shape(self, counts):
        with pytest.raises(ValueError, match="dense over 16 lines"):
            make_array().apply_wear_bulk(counts, 0.0)

    def test_rejects_negative_count(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[4] = -1
        with pytest.raises(ValueError, match="negative"):
            make_array().apply_wear_bulk(counts, 0.0)

    def test_rejects_fault_injection(self):
        array = PCMArray(PCMConfig(n_lines=16, read_disturb_ber=1e-3))
        with pytest.raises(ValueError, match="fault injection"):
            array.apply_wear_bulk(np.zeros(16, dtype=np.int64), 0.0)


class TestFillData:
    def test_sets_only_the_prefix_without_wear_or_time(self):
        array = make_array()
        array.write(12, ALL1)
        before = array_state(array)
        array.fill_data(MIXED, 5)
        after = array_state(array)
        assert after[1] == [int(MIXED)] * 5 + before[1][5:]
        assert after[0] == before[0] and after[2:] == before[2:]

    def test_whole_array_by_default(self):
        array = make_array(n_physical=20)
        array.fill_data(ALL1)
        assert array.data.tolist() == [int(ALL1)] * 20
        assert array.total_writes == 0 and array.elapsed_ns == 0.0


class TestQueries:
    def test_max_wear(self):
        array = make_array()
        array.wear[5] = 9
        assert array.max_wear == 9

    def test_remaining_endurance_clipped(self):
        array = make_array(endurance=10, raise_on_failure=False)
        array.wear[0] = 15
        remaining = array.remaining_endurance()
        assert remaining[0] == 0
        assert remaining[1] == 10


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from([ALL0, ALL1, MIXED])),
        max_size=60,
    )
)
def test_wear_equals_writes_property(writes):
    """Total wear always equals the number of completed write operations."""
    array = make_array()
    for pa, data in writes:
        array.write(pa, data)
    assert int(array.wear.sum()) == len(writes) == array.total_writes
