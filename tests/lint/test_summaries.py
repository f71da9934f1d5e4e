"""Unit tests for the interprocedural summary table.

Covers the properties REP101 leans on: return-dimension propagation
through helpers, passthrough purity, and termination/stability on
recursive call graphs (self-loops and multi-member SCCs).
"""

import ast

from repro.lint.callgraph import LintProject
from repro.lint.diagnostics import LintModule
from repro.lint.summaries import SummaryTable, project_summaries


def _project(sources):
    modules = [
        LintModule(rel_path=path, source=src, tree=ast.parse(src))
        for path, src in sources.items()
    ]
    return LintProject(modules)


def _summaries(sources):
    return SummaryTable(_project(sources))


class TestReturnDims:
    def test_direct_latency_return(self):
        table = _summaries({
            "src/repro/a.py": (
                "def write_one(ctrl):\n"
                "    lat = ctrl.write(0, b'x')\n"
                "    return lat\n"
            ),
        })
        summary = table.get("repro.a.write_one")
        assert "latency" in summary.returns

    def test_latency_through_helper(self):
        table = _summaries({
            "src/repro/a.py": (
                "def inner(ctrl):\n"
                "    return ctrl.write(0, b'x')\n"
                "def outer(ctrl):\n"
                "    lat = inner(ctrl)\n"
                "    return lat\n"
            ),
        })
        assert "latency" in table.get("repro.a.inner").returns
        assert "latency" in table.get("repro.a.outer").returns

    def test_latency_through_cross_module_helper(self):
        table = _summaries({
            "src/repro/a.py": (
                "def issue(ctrl):\n"
                "    return ctrl.write(0, b'x')\n"
            ),
            "src/repro/b.py": (
                "from repro.a import issue\n"
                "def outer(ctrl):\n"
                "    return issue(ctrl)\n"
            ),
        })
        assert "latency" in table.get("repro.b.outer").returns

    def test_builtin_boundary_contributes_nothing(self):
        table = _summaries({
            "src/repro/a.py": (
                "def size(x):\n"
                "    return len(x)\n"
            ),
        })
        summary = table.get("repro.a.size")
        assert summary.returns == frozenset()


class TestPassthrough:
    def test_identity_is_passthrough(self):
        table = _summaries({
            "src/repro/a.py": "def ident(x):\n    return x\n",
        })
        assert table.get("repro.a.ident").passthrough == {0}

    def test_scaled_return_is_passthrough(self):
        table = _summaries({
            "src/repro/a.py": "def scaled(lat):\n    return lat * 2\n",
        })
        assert table.get("repro.a.scaled").passthrough == {0}

    def test_alias_then_return_is_passthrough(self):
        table = _summaries({
            "src/repro/a.py": (
                "def via_alias(lat):\n"
                "    out = lat\n"
                "    return out\n"
            ),
        })
        assert table.get("repro.a.via_alias").passthrough == {0}

    def test_other_use_disqualifies(self):
        table = _summaries({
            "src/repro/a.py": (
                "def logged(lat, log):\n"
                "    log.append(lat)\n"
                "    return lat\n"
            ),
        })
        assert 0 not in table.get("repro.a.logged").passthrough

    def test_unreturned_param_is_not_passthrough(self):
        table = _summaries({
            "src/repro/a.py": "def drop(x):\n    return 0\n",
        })
        assert table.get("repro.a.drop").passthrough == frozenset()

    def test_self_never_counted(self):
        table = _summaries({
            "src/repro/a.py": (
                "class C:\n"
                "    def get(self):\n"
                "        return self\n"
            ),
        })
        assert table.get("repro.a.C.get").passthrough == frozenset()


class TestCycles:
    def test_self_recursion_terminates(self):
        table = _summaries({
            "src/repro/a.py": (
                "def retry(ctrl, n):\n"
                "    if n:\n"
                "        return retry(ctrl, n - 1)\n"
                "    return ctrl.write(0, b'x')\n"
            ),
        })
        assert table.get("repro.a.retry").returns == frozenset({"latency"})

    def test_mutual_recursion_return_dims_converge(self):
        table = _summaries({
            "src/repro/a.py": (
                "def a(ctrl, n):\n"
                "    if n:\n"
                "        x = b(ctrl, n - 1)\n"
                "        return x\n"
                "    return ctrl.write(0, b'x')\n"
                "def b(ctrl, n):\n"
                "    y = a(ctrl, n)\n"
                "    return y\n"
            ),
        })
        assert "latency" in table.get("repro.a.a").returns
        assert "latency" in table.get("repro.a.b").returns


class TestProjectMemoisation:
    def test_project_summaries_cached(self):
        project = _project({
            "src/repro/a.py": "def f():\n    return 1\n",
        })
        assert project_summaries(project) is project_summaries(project)
