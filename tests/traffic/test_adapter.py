"""Tests for the traffic->simulator glue (dispatch, replay, convert)."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.sim.engine import run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.traffic import (
    TraceFileMissingError,
    convert_to_rbt,
    csv_trace_chunks,
    open_trace_chunks,
    open_trace_entries,
    read_rbt_chunks,
    rbt_metadata,
    trace_format,
)
from repro.traffic.csvtrace import AddressWindow
from repro.wearlevel import StartGap

DATA = Path(__file__).parent.parent / "data"
CSV_FIXTURE = DATA / "msr_sample.csv"
RBT_FIXTURE = DATA / "msr_sample.rbt"


def merge(chunks):
    las, datas = zip(*chunks)
    return np.concatenate(las), np.concatenate(datas)


class TestFormatDispatch:
    def test_by_suffix(self):
        assert trace_format(CSV_FIXTURE) == "csv"
        assert trace_format(RBT_FIXTURE) == "rbt"

    def test_by_magic_when_suffix_lies(self, tmp_path):
        disguised = tmp_path / "trace.dat"
        shutil.copy(RBT_FIXTURE, disguised)
        assert trace_format(disguised) == "rbt"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileMissingError):
            trace_format(tmp_path / "nope.dat")
        with pytest.raises(TraceFileMissingError):
            open_trace_chunks(tmp_path / "nope.dat", n_lines=64)


class TestOpenTrace:
    def test_csv_path_applies_the_window(self):
        opened = merge(open_trace_chunks(CSV_FIXTURE, n_lines=4096))
        direct = merge(csv_trace_chunks(
            CSV_FIXTURE, window=AddressWindow(n_lines=4096)
        ))
        np.testing.assert_array_equal(opened[0], direct[0])
        np.testing.assert_array_equal(opened[1], direct[1])

    def test_rbt_path_replays_as_stored(self):
        opened = merge(open_trace_chunks(RBT_FIXTURE, n_lines=4096))
        stored = merge(read_rbt_chunks(RBT_FIXTURE))
        np.testing.assert_array_equal(opened[0], stored[0])
        np.testing.assert_array_equal(opened[1], stored[1])

    def test_entries_are_the_unrolled_chunks(self):
        las, datas = merge(open_trace_chunks(CSV_FIXTURE, n_lines=4096))
        entries = list(open_trace_entries(CSV_FIXTURE, n_lines=4096))
        assert [e.la for e in entries] == las.tolist()
        assert [int(e.data) for e in entries] == datas.tolist()


class TestConvert:
    def test_committed_fixture_is_the_conversion_output(self, tmp_path):
        out = tmp_path / "again.rbt"
        n = convert_to_rbt(CSV_FIXTURE, out, n_lines=4096)
        assert n == 5354
        assert out.read_bytes() == RBT_FIXTURE.read_bytes()

    def test_conversion_parameters_recorded(self, tmp_path):
        out = tmp_path / "meta.rbt"
        convert_to_rbt(CSV_FIXTURE, out, n_lines=128, window_mode="clamp")
        meta = rbt_metadata(out)["meta"]
        assert meta["n_lines"] == 128
        assert meta["window_mode"] == "clamp"
        assert meta["source"] == "msr_sample.csv"

    def test_converted_file_replays_like_the_csv(self, tmp_path):
        out = tmp_path / "replay.rbt"
        convert_to_rbt(CSV_FIXTURE, out, n_lines=512)
        from_rbt = merge(open_trace_chunks(out, n_lines=512))
        from_csv = merge(open_trace_chunks(CSV_FIXTURE, n_lines=512))
        np.testing.assert_array_equal(from_rbt[0], from_csv[0])


class TestReplay:
    def test_loaded_trace_drives_the_engine(self):
        controller = MemoryController(
            StartGap(4096, remap_interval=16),
            PCMConfig(n_lines=4096, endurance=500),
        )
        result = run_trace_fast(
            controller, open_trace_chunks(RBT_FIXTURE, n_lines=4096)
        )
        assert result.user_writes == 5354
        assert result.elapsed_ns > 0
