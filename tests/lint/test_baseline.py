"""Baseline (ratchet) tests: the library functions and the CLI flow."""

import json

import pytest

from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    baseline_key,
    load_baseline,
    write_baseline,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.runner import main


def _diag(path="src/x.py", line=3, code="REP101", message="boom"):
    return Diagnostic(path=path, line=line, col=1, code=code,
                      message=message)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "base.json"
        n = write_baseline([_diag(), _diag(line=9)], path)
        assert n == 1  # same key (location-insensitive), count 2
        entries = load_baseline(path)
        assert entries == {baseline_key(_diag()): 2}

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "build" / "deep" / "base.json"
        write_baseline([_diag()], path)
        assert path.exists()

    def test_file_is_stable_json(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline([_diag(), _diag(code="REP102")], path)
        payload = json.loads(path.read_text())
        assert payload["format"] == 1
        assert list(payload["entries"]) == sorted(payload["entries"])


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BaselineError, match="not found"):
            load_baseline(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text("{broken")
        with pytest.raises(BaselineError, match="unreadable"):
            load_baseline(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"format": 99, "entries": {}}))
        with pytest.raises(BaselineError, match="format"):
            load_baseline(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps({"format": 1, "entries": {"k": "not-an-int"}})
        )
        with pytest.raises(BaselineError, match="malformed"):
            load_baseline(path)


class TestApply:
    def test_known_finding_filtered(self):
        entries = {baseline_key(_diag()): 1}
        new, stale = apply_baseline([_diag()], entries)
        assert new == [] and stale == []

    def test_line_moves_do_not_break_the_match(self):
        entries = {baseline_key(_diag(line=3)): 1}
        new, stale = apply_baseline([_diag(line=40)], entries)
        assert new == [] and stale == []

    def test_new_finding_reported(self):
        entries = {baseline_key(_diag()): 1}
        fresh = _diag(message="different")
        new, stale = apply_baseline([_diag(), fresh], entries)
        assert new == [fresh] and stale == []

    def test_count_overflow_reported(self):
        entries = {baseline_key(_diag()): 1}
        new, stale = apply_baseline([_diag(line=1), _diag(line=2)], entries)
        assert len(new) == 1 and stale == []

    def test_fixed_finding_is_stale(self):
        entries = {baseline_key(_diag()): 1}
        new, stale = apply_baseline([], entries)
        assert new == [] and stale == [baseline_key(_diag())]

    def test_partially_matched_entry_is_not_stale(self):
        entries = {baseline_key(_diag()): 2}
        new, stale = apply_baseline([_diag()], entries)
        assert new == [] and stale == []


class TestCLIFlow:
    _BAD = "import numpy as np\nx = np.random.rand()\n"

    def _write(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self._BAD)
        base = tmp_path / "base.json"
        assert main([str(bad), "--no-cache",
                     "--baseline", "write", str(base)]) == 0
        return bad, base

    def test_write_then_check_passes(self, tmp_path, capsys):
        bad, base = self._write(tmp_path)
        capsys.readouterr()
        assert main([str(bad), "--no-cache",
                     "--baseline", "check", str(base)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_new_finding_fails_check(self, tmp_path, capsys):
        bad, base = self._write(tmp_path)
        bad.write_text(self._BAD + "def f(a=[]):\n    return a\n")
        capsys.readouterr()
        assert main([str(bad), "--no-cache",
                     "--baseline", "check", str(base)]) == 1
        out = capsys.readouterr().out
        assert "REP004" in out and "REP001" not in out

    def test_fixed_finding_is_stale_and_fails_check(self, tmp_path, capsys):
        bad, base = self._write(tmp_path)
        bad.write_text("x = 1\n")
        capsys.readouterr()
        assert main([str(bad), "--no-cache",
                     "--baseline", "check", str(base)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self._BAD)
        assert main([str(bad), "--no-cache", "--baseline", "check",
                     str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_mode_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(self._BAD)
        assert main([str(bad), "--no-cache", "--baseline", "frobnicate",
                     str(tmp_path / "b.json")]) == 2
        assert "write" in capsys.readouterr().err
