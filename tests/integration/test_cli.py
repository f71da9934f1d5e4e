"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent.parent / "data"


class TestLifetime:
    def test_rbsg_rta_headline(self, capsys):
        assert main(["lifetime", "--scheme", "rbsg", "--attack", "rta"]) == 0
        out = capsys.readouterr().out
        assert "477.7 s" in out

    def test_rbsg_raa(self, capsys):
        assert main(["lifetime", "--scheme", "rbsg", "--attack", "raa"]) == 0
        assert "152 days" in capsys.readouterr().out

    def test_two_level_sr(self, capsys):
        assert main(
            ["lifetime", "--scheme", "two-level-sr", "--attack", "raa"]
        ) == 0
        assert "3263 days" in capsys.readouterr().out

    def test_security_rbsg_raa(self, capsys):
        assert main(
            ["lifetime", "--scheme", "security-rbsg", "--attack", "raa"]
        ) == 0
        assert "67." in capsys.readouterr().out  # fraction of ideal

    def test_security_rbsg_rta_message(self, capsys):
        assert main(
            ["lifetime", "--scheme", "security-rbsg", "--attack", "rta"]
        ) == 0
        assert "resists RTA" in capsys.readouterr().out

    def test_none_raa(self, capsys):
        assert main(["lifetime", "--scheme", "none", "--attack", "raa"]) == 0
        assert "100.0 s" in capsys.readouterr().out

    def test_unsupported_pair(self, capsys):
        assert main(["lifetime", "--scheme", "none", "--attack", "rta"]) == 2


class TestSimulate:
    def test_raa_none(self, capsys):
        code = main([
            "simulate", "--scheme", "none", "--attack", "raa",
            "--lines", "64", "--endurance", "500", "--budget", "10000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED line 5 after 500" in out

    def test_rta_rbsg(self, capsys):
        code = main([
            "simulate", "--scheme", "rbsg", "--attack", "rta",
            "--lines", "512", "--endurance", "2e4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED line" in out
        assert "detection cost" in out

    def test_survival(self, capsys):
        code = main([
            "simulate", "--scheme", "sr", "--attack", "raa",
            "--lines", "64", "--endurance", "1e9", "--budget", "5000",
        ])
        assert code == 0
        assert "survived" in capsys.readouterr().out

    def test_unsupported_pair(self):
        assert main([
            "simulate", "--scheme", "security-rbsg", "--attack", "rta",
        ]) == 2


class TestJsonOutput:
    def test_lifetime_json(self, capsys):
        assert main([
            "lifetime", "--scheme", "rbsg", "--attack", "rta", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "rbsg"
        assert payload["attack"] == "rta"
        assert payload["lifetime_ns"] == pytest.approx(477749504000.0)
        assert 0.0 < payload["fraction_of_ideal"] < 1.0

    def test_lifetime_json_resistant_pair(self, capsys):
        assert main([
            "lifetime", "--scheme", "security-rbsg", "--attack", "rta",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lifetime_ns"] is None
        assert payload["resists_rta"] is True

    def test_overhead_json(self, capsys):
        assert main(["overhead", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["register_bytes"] / 1024 == pytest.approx(
            2.02, abs=0.005
        )  # the "2.02 KB" the text renderer prints
        assert payload["cubing_gates"] == 1270
        assert {"n_subregions", "n_stages", "spare_bytes"} <= set(payload)


class TestPaperScaleLifetime:
    """`lifetime --paper-scale` — measured, not modelled, small device."""

    ARGS = [
        "lifetime", "--paper-scale", "--scheme", "start-gap",
        "--trace", "uniform", "--lines", "4096", "--endurance", "2000",
        "--seed", "11", "--fast-forward", "analytic",
    ]

    def test_json_run_to_failure(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "start-gap"
        assert payload["failed"] is True
        assert payload["engine"] == "fast-forward:analytic"

    def test_deterministic(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == first

    def test_text_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fast-forward:analytic" in out
        assert "user writes" in out

    def test_refused_trace_is_an_error_line(self, capsys):
        assert main(self.ARGS + ["--trace", "zipf", "--alpha", "0"]) == 2
        assert capsys.readouterr().err == "error: alpha must be positive\n"


class TestTrace:
    def test_synthetic_trace_run(self, capsys):
        assert main([
            "trace", "--scheme", "rbsg", "--trace", "uniform",
            "--lines", "256", "--endurance", "200",
            "--budget", "100000", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert payload["trace"] == "uniform"

    def test_trace_file_run(self, capsys):
        assert main([
            "trace", "--scheme", "security-rbsg",
            "--trace-file", str(DATA / "msr_sample.rbt"),
            "--lines", "4096", "--endurance", "100", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["user_writes"] == 5354

    def test_no_fast_is_bit_identical(self, capsys):
        argv = [
            "trace", "--scheme", "start-gap",
            "--trace-file", str(DATA / "msr_sample.csv"),
            "--lines", "512", "--endurance", "100", "--json",
        ]
        assert main(argv) == 0
        fast = json.loads(capsys.readouterr().out)
        assert main(argv + ["--no-fast"]) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert fast.pop("engine") == "batched"
        assert scalar.pop("engine") == "scalar"
        assert fast == scalar

    def test_scheme_required(self, capsys):
        assert main(["trace", "--trace", "uniform"]) == 2
        assert "--scheme" in capsys.readouterr().err

    def test_trace_source_required(self, capsys):
        assert main(["trace", "--scheme", "none"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_missing_trace_file(self, capsys):
        assert main([
            "trace", "--scheme", "none", "--trace-file", "/nope.rbt",
        ]) == 2
        assert "no such trace file" in capsys.readouterr().err


class TestRefusedDeviceValues:
    """A value the device config, the scheme or the trace window refuses
    is one ``error:`` line and exit 2, not a traceback."""

    CSV = str(DATA / "msr_sample.csv")

    @pytest.mark.parametrize("argv, message", [
        (["trace", "--scheme", "rbsg", "--trace", "uniform", "--lines", "64",
          "--endurance", "0"], "endurance must be positive"),
        (["trace", "--scheme", "rbsg", "--trace", "sequential",
          "--lines", "64", "--interval", "0"], "remap_interval must be >= 1"),
        (["simulate", "--scheme", "rbsg", "--attack", "raa", "--lines", "0"],
         "n_lines must be a power of two, got 0"),
        (["simulate", "--scheme", "rbsg", "--attack", "raa", "--budget", "-1"],
         "budget must be >= 0, got -1"),
        (["stages", "--outer-interval", "0"], "outer_interval must be >= 1"),
        (["overhead", "--stages", "0"], "n_stages must be >= 1"),
        (["overhead", "--subregions", "0"], "n_subregions must be >= 1"),
        (["lifetime", "--scheme", "rbsg", "--attack", "raa", "--regions", "0"],
         "n_regions must be >= 1"),
        (["trace", "convert", CSV, "/nonexistent/unused.rbt", "--lines", "0"],
         "window needs n_lines >= 1"),
        (["trace", "--scheme", "none", "--trace-file", CSV,
          "--line-bytes", "0"], "line_bytes must be >= 1"),
        (["trace", "info", CSV, "--line-bytes", "0"],
         "line_bytes must be >= 1"),
    ], ids=["endurance", "interval", "lines", "simulate-budget",
            "outer-interval", "overhead-stages", "overhead-subregions",
            "lifetime-regions", "convert-lines", "trace-file-line-bytes",
            "info-line-bytes"])
    def test_error_line_and_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.fixture
    def no_run(self, monkeypatch):
        import repro.campaign

        def no_run(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(repro.campaign, "run_collect", no_run)

    def test_fault_rate_refused_before_any_task_runs(self, capsys, no_run):
        assert main(["faults", "--rates", "2.0", "--lines", "64"]) == 2
        assert capsys.readouterr().err == (
            "error: verify_fail_base must be in [0, 1)\n")

    @pytest.mark.parametrize("argv, message", [
        (["--lines", "0"], "n_lines must be a power of two, got 0"),
        (["--budget", "-1"], "budget must be >= 0, got -1"),
    ], ids=["lines", "budget"])
    def test_matrix_refused_before_any_task_runs(self, capsys, no_run, argv,
                                                 message):
        assert main(["matrix", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTraceConvertInfo:
    def test_convert_then_info(self, tmp_path, capsys):
        out = tmp_path / "t.rbt"
        assert main([
            "trace", "convert", str(DATA / "msr_sample.csv"), str(out),
            "--lines", "4096",
        ]) == 0
        assert "wrote 5354 line writes" in capsys.readouterr().out
        assert out.read_bytes() == (DATA / "msr_sample.rbt").read_bytes()
        assert main(["trace", "info", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "rbt"
        assert payload["n_entries"] == 5354
        assert payload["metadata"]["source"] == "msr_sample.csv"

    def test_info_on_csv(self, capsys):
        assert main([
            "trace", "info", str(DATA / "msr_sample.csv"), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "csv"
        assert payload["n_records"] == 30
        assert payload["n_writes"] == 24

    def test_convert_errors_exit_2(self, tmp_path, capsys):
        assert main([
            "trace", "convert", "/nope.csv", str(tmp_path / "o.rbt"),
            "--lines", "64",
        ]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_info_errors_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rbt"
        bad.write_bytes(b"RBT\x09")
        assert main(["trace", "info", str(bad)]) == 2
        assert "version" in capsys.readouterr().err


class TestOtherCommands:
    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "2.02 KB" in out
        assert "1270 gates" in out

    def test_stages(self, capsys):
        assert main(["stages", "--outer-interval", "128"]) == 0
        out = capsys.readouterr().out
        assert "minimum secure stage count: 6" in out
        assert "S= 6: SECURE" in out

    def test_perf(self, capsys):
        assert main(["perf", "--interval", "64", "--ops", "2000"]) == 0
        out = capsys.readouterr().out
        assert "PARSEC-like" in out and "SPEC-like" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
