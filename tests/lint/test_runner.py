"""Driver-level tests: CLI surface, output formats, repo self-check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import REGISTRY, all_rules, lint_paths
from repro.lint.runner import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestRegistry:
    def test_seventeen_rules_registered(self):
        assert sorted(REGISTRY) == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007",
            "REP101", "REP102", "REP103", "REP104",
            "REP301", "REP302", "REP303", "REP304", "REP305", "REP306",
        ]

    def test_flow_rules_are_flow_rules(self):
        from repro.lint import FlowRule

        flow = {code for code, rule in REGISTRY.items()
                if isinstance(rule, FlowRule)}
        # REP305 (nondeterministic array construction) is deliberately
        # syntactic so the per-file cache and the --jobs worker pool
        # both cover it.
        assert flow == {
            "REP101", "REP102", "REP103", "REP104",
            "REP301", "REP302", "REP303", "REP304", "REP306",
        }

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.description, f"{rule.code} has no docstring"
            assert rule.name, f"{rule.code} has no name"


class TestCLI:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(SRC_REPRO)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "bad.py:2:5" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        [diag] = payload["diagnostics"]
        assert diag["code"] == "REP004"
        assert diag["line"] == 1

    def test_select_and_ignore(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "def f(a=[]):\n"
            "    return np.random.rand()\n"
        )
        assert main([str(bad), "--select", "REP004"]) == 1
        assert main([str(bad), "--ignore", "REP001,REP004,REP305"]) == 0

    def test_unknown_rule_code_is_usage_error(self, capsys):
        assert main([str(SRC_REPRO), "--select", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in REGISTRY:
            assert code in out


class TestRepoIsClean:
    """The acceptance gate: reprolint exits 0 on the shipped tree."""

    def test_src_repro_has_no_violations(self):
        diagnostics = lint_paths([str(SRC_REPRO)])
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    def test_examples_have_no_violations(self):
        diagnostics = lint_paths([str(REPO_ROOT / "examples")])
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    def test_array_rule_family_clean_on_tree(self):
        """REP301–REP306 run as part of the gate and stay clean."""
        from repro.lint import REGISTRY

        selected = [REGISTRY[code] for code in
                    ("REP301", "REP302", "REP303", "REP304", "REP305",
                     "REP306")]
        diagnostics = lint_paths([str(SRC_REPRO)], selected=selected)
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    def test_module_entrypoint_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC_REPRO)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestFlowFlag:
    _DROP = (
        "def f(ctrl, n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        lat = ctrl.write(i, b'x')\n"
        "        if i % 2:\n"
        "            total += lat\n"
        "    return total\n"
    )

    def test_flow_on_by_default(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self._DROP)
        assert main([str(bad), "--no-cache"]) == 1

    def test_no_flow_skips_flow_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self._DROP)
        assert main([str(bad), "--no-flow", "--no-cache"]) == 0

    def test_flow_diagnostics_respect_suppressions(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        src = self._DROP.replace(
            "lat = ctrl.write(i, b'x')",
            "lat = ctrl.write(i, b'x')  "
            "# reprolint: disable=REP101 -- odd probes only",
        )
        bad.write_text(src)
        assert main([str(bad), "--no-cache"]) == 0


class TestParallelJobs:
    """--jobs N fans the per-file pass over worker processes; the
    output contract is byte-identity with the serial path."""

    def _tree(self, tmp_path):
        for i in range(6):
            mod = tmp_path / f"mod{i}.py"
            mod.write_text(
                "import numpy as np\n"
                f"x{i} = np.random.rand()\n"
                "def f(a=[]):\n"
                "    return a\n"
            )
        return tmp_path

    def test_jobs_output_byte_identical(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        assert main([str(tree), "--no-cache", "--jobs", "1"]) == 1
        serial = capsys.readouterr().out
        assert main([str(tree), "--no-cache", "--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial

    def test_jobs_zero_means_cpu_count(self):
        from repro.lint.parallel import resolve_jobs

        assert resolve_jobs(0) >= 1
        assert resolve_jobs(3) == 3

    def test_jobs_respect_suppressions(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import numpy as np\n"
            "x = np.random.rand()  # reprolint: disable=REP001 -- fixture\n"
        )
        assert main([str(mod), str(self._tree(tmp_path)), "--no-cache",
                     "--jobs", "2", "--check-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "REP100" not in out  # the pragma is used, not stale

    def test_jobs_fill_the_cache_like_serial(self, tmp_path, capsys):
        tree = self._tree(tmp_path)
        cache_dir = tmp_path / "cache"
        assert main([str(tree), "--cache-dir", str(cache_dir),
                     "--jobs", "4"]) == 1
        warm_parallel = capsys.readouterr().out
        assert main([str(tree), "--cache-dir", str(cache_dir),
                     "--jobs", "1"]) == 1
        assert capsys.readouterr().out == warm_parallel


class TestSarifFormat:
    def test_sarif_document_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n")
        assert main([str(bad), "--format", "sarif", "--no-cache"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        [run] = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(REGISTRY)
        [result] = run["results"]
        assert result["ruleId"] == "REP004"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1

    def test_sarif_is_byte_stable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        main([str(bad), "--format", "sarif", "--no-cache"])
        first = capsys.readouterr().out
        main([str(bad), "--format", "sarif", "--no-cache"])
        assert capsys.readouterr().out == first


class TestCache:
    def test_cache_round_trip_same_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        cache_dir = tmp_path / "cache"
        argv = [str(bad), "--cache-dir", str(cache_dir)]
        assert main(argv) == 1
        cold = capsys.readouterr().out
        assert (cache_dir / "reprolint.json").exists()
        assert main(argv) == 1
        assert capsys.readouterr().out == cold

    def test_edit_invalidates_file_entry(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache_dir = tmp_path / "cache"
        argv = [str(target), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        target.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main(argv) == 1
        assert "REP001" in capsys.readouterr().out

    def test_corrupt_cache_is_ignored(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n")
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "reprolint.json").write_text("{not json")
        assert main([str(bad), "--cache-dir", str(cache_dir)]) == 1


class TestCheckSuppressions:
    def test_stale_pragma_reported(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "x = 1  # reprolint: disable=REP001 -- nothing here anymore\n"
        )
        assert main([str(mod), "--check-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "REP100" in out and "REP001" in out

    def test_used_pragma_not_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import numpy as np\n"
            "x = np.random.rand()"
            "  # reprolint: disable=REP001,REP305 -- fixture\n"
        )
        assert main([str(mod), "--check-suppressions"]) == 0

    def test_unknown_code_in_pragma_is_stale(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # reprolint: disable=REP999\n")
        assert main([str(mod), "--check-suppressions"]) == 1
        assert "REP999" in capsys.readouterr().out

    def test_pragma_for_unselected_rule_is_not_stale(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # reprolint: disable=REP001 -- fixture\n")
        assert main(
            [str(mod), "--check-suppressions", "--select", "REP004"]
        ) == 0

    def test_repo_has_no_stale_suppressions(self):
        assert main([str(SRC_REPRO), str(REPO_ROOT / "examples"),
                     "--check-suppressions"]) == 0


class TestMypyGate:
    """`mypy src/repro` must pass where mypy is available (the CI lint job)."""

    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed"
    )
    def test_mypy_clean(self):
        result = subprocess.run(
            ["mypy", "src/repro"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
