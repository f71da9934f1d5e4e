"""End-to-end tests for ``repro campaign run|resume|status|report|compact``.

The in-process tests drive :func:`repro.cli.main` directly (the repo's
CLI-test idiom).  The kill-and-resume test is the real thing: a child
``repro campaign run`` process is ``SIGKILL``'d mid-campaign, the
directory is compacted, and the campaign resumed from the index must
converge on exactly one ``ok`` record per task — no duplicates, no
holes — and report the same bytes as an uninterrupted serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignStore, load_spec
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
FAULT_GRID = REPO / "examples" / "campaigns" / "fault_grid.toml"

SMALL_SPEC = """\
[campaign]
name = "cli-demo"
kind = "faults"
n_seeds = 2

[base]
n_lines = 64
endurance = 400
n_writes = 400
n_spares = 4
verify_fail_base = 0.01

[grid]
scheme = ["none", "rbsg"]
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SMALL_SPEC)
    return path


class TestRunStatusReport:
    def test_full_cycle(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec_file), "--out", str(out_dir),
            "--quiet",
        ]) == 0
        assert "4 ok, 0 failed, 0 skipped of 4 tasks" in capsys.readouterr().out

        assert main(["campaign", "status", str(out_dir)]) == 0
        status_out = capsys.readouterr().out
        assert "cli-demo" in status_out and "complete" in status_out

        assert main([
            "campaign", "report", str(out_dir), "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2  # one row per scheme, seeds averaged
        assert {row["scheme"] for row in rows} == {"none", "rbsg"}
        assert all(row["n_seeds"] == 2 for row in rows)

    def test_report_to_file_csv(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        main(["campaign", "run", str(spec_file), "--out", str(out_dir),
              "--quiet"])
        capsys.readouterr()
        report = tmp_path / "report.csv"
        assert main([
            "campaign", "report", str(out_dir),
            "--format", "csv", "--output", str(report),
        ]) == 0
        header = report.read_text().splitlines()[0]
        assert header.startswith("kind,n_seeds,")

    def test_run_refuses_existing_directory(self, spec_file, tmp_path,
                                            capsys):
        out_dir = tmp_path / "camp"
        main(["campaign", "run", str(spec_file), "--out", str(out_dir),
              "--quiet"])
        capsys.readouterr()
        assert main([
            "campaign", "run", str(spec_file), "--out", str(out_dir),
            "--quiet",
        ]) == 2
        assert "campaign resume" in capsys.readouterr().err

    def test_bad_spec_path(self, tmp_path, capsys):
        assert main([
            "campaign", "run", str(tmp_path / "nope.toml"),
            "--out", str(tmp_path / "camp"), "--quiet",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestBadRunnerOptions:
    """A bad runner option is one ``error:`` line and exit 2, written
    before the campaign directory is, so the corrected command is not
    refused as an existing campaign."""

    OPTIONS = [
        ["--workers", "0"], ["--timeout", "0"], ["--retries", "-1"],
        ["--max-tasks", "-1"],
    ]

    @pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o[0])
    def test_run_creates_nothing(self, spec_file, tmp_path, capsys, option):
        out_dir = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec_file), "--out", str(out_dir),
            "--quiet", *option,
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()
        assert main([
            "campaign", "run", str(spec_file), "--out", str(out_dir),
            "--quiet",
        ]) == 0

    @pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o[0])
    def test_resume_leaves_the_campaign_untouched(
        self, spec_file, tmp_path, capsys, option
    ):
        out_dir = tmp_path / "camp"
        main(["campaign", "run", str(spec_file), "--out", str(out_dir),
              "--max-tasks", "1", "--quiet"])
        log = (out_dir / "results.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["campaign", "resume", str(out_dir), "--quiet",
                     *option]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (out_dir / "results.jsonl").read_bytes() == log

    @pytest.mark.parametrize("command", ["matrix", "faults"])
    def test_grid_commands_report_bad_workers(self, command, capsys):
        assert main([command, "--workers", "0"]) == 2
        assert capsys.readouterr().err == "error: workers must be >= 1\n"


class TestInterruptAndResume:
    def test_max_tasks_then_resume(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec_file), "--out", str(out_dir),
            "--max-tasks", "1", "--quiet",
        ]) == 1  # incomplete by construction
        assert "stopped early" in capsys.readouterr().out

        assert main(["campaign", "status", str(out_dir)]) == 1
        capsys.readouterr()

        assert main([
            "campaign", "resume", str(out_dir), "--quiet",
        ]) == 0
        assert "3 ok, 0 failed, 1 skipped" in capsys.readouterr().out
        assert main(["campaign", "status", str(out_dir)]) == 0


class TestKillAndResume:
    def test_sigkill_mid_campaign_resumes_without_loss(self, tmp_path,
                                                       capsys):
        out_dir = tmp_path / "camp"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(FAULT_GRID), "--out", str(out_dir),
                "--workers", "2", "--quiet",
            ],
            cwd=str(REPO), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # its own process group, pool included
        )
        results = out_dir / "results.jsonl"
        try:
            try:
                # Wait for at least one durable record, then kill -9.
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if results.exists() and results.stat().st_size > 0:
                        break
                    if child.poll() is not None:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("campaign never wrote a record")
            finally:
                if child.poll() is None:
                    child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
            # The pool workers follow their runner out.
            deadline = time.monotonic() + 15
            while True:
                try:
                    os.killpg(child.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "pool workers outlived the runner"
                time.sleep(0.05)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        spec = load_spec(FAULT_GRID)
        all_ids = {key.key_id for key in spec.expand()}
        done_before = CampaignStore.open(out_dir).completed_ids()
        if child.returncode == 0:  # finished before the kill landed
            assert done_before == all_ids
        else:
            assert done_before < all_ids  # genuinely interrupted

            # Compact, then prove resume answers from the index and the
            # tail without re-parsing the indexed JSONL prefix.
            assert main(["campaign", "compact", str(out_dir)]) == 0
            store = CampaignStore.open(out_dir)
            real_scan = store._scan

            def guarded_scan(start, include_tail=True):
                assert start > 0, "completed_ids re-scanned the log"
                return real_scan(start, include_tail)

            store._scan = guarded_scan
            assert store.completed_ids() == done_before

            capsys.readouterr()
            assert main([
                "campaign", "resume", str(out_dir), "--workers", "2",
                "--quiet",
            ]) == 0
            assert f"{len(done_before)} skipped" in capsys.readouterr().out

        store = CampaignStore.open(out_dir)
        ok_records = [r for r in store.records() if r.ok]
        ok_ids = [r.key.key_id for r in ok_records]
        assert len(ok_ids) == len(set(ok_ids))  # no task ran twice
        assert set(ok_ids) == all_ids  # no holes
        assert store.status().complete

        # Byte for byte the report of one uninterrupted serial run.
        serial_dir = tmp_path / "serial"
        assert main([
            "campaign", "run", str(FAULT_GRID), "--out", str(serial_dir),
            "--workers", "1", "--quiet",
        ]) == 0
        reports = []
        for directory in (out_dir, serial_dir):
            report = directory / "report.json"
            assert main([
                "campaign", "report", str(directory), "--format", "json",
                "--output", str(report),
            ]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
