"""Unit tests for the interprocedural summary table.

Covers the properties the flow rules lean on: return-dimension
propagation through helpers, passthrough purity, RNG sink positions,
and termination/stability on recursive call graphs (self-loops and
multi-member SCCs).
"""

import ast

from repro.lint.callgraph import LintProject
from repro.lint.diagnostics import LintModule
from repro.lint.summaries import (
    SummaryTable,
    project_summaries,
    walk_own,
)


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

    def test_clock_domains_tracked_separately(self):
        table = _summaries({
            "src/repro/a.py": (
                "import time\n"
                "def wall_now():\n"
                "    return time.time()\n"
                "def mono_now():\n"
                "    return time.monotonic()\n"
            ),
        })
        assert table.get("repro.a.wall_now").returns == {"wallclock"}
        assert table.get("repro.a.mono_now").returns == {"monotonic"}

    def test_rng_constructor_return(self):
        table = _summaries({
            "src/repro/a.py": (
                "import numpy as np\n"
                "def make_rng():\n"
                "    return np.random.default_rng()\n"
            ),
        })
        assert "rng" in table.get("repro.a.make_rng").returns

    def test_builtin_boundary_contributes_nothing(self):
        table = _summaries({
            "src/repro/a.py": (
                "def size(x):\n"
                "    return len(x)\n"
            ),
        })
        summary = table.get("repro.a.size")
        assert summary.returns == frozenset()

    def test_plain_function_is_clean(self):
        table = _summaries({
            "src/repro/a.py": (
                "def add(a, b):\n"
                "    return a + b\n"
            ),
        })
        summary = table.get("repro.a.add")
        assert summary.returns == frozenset()
        assert summary.rng_sink_params == frozenset()


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


class TestRngSinks:
    def test_param_into_stochastic_module(self):
        table = _summaries({
            "src/repro/faults/inject.py": (
                "def inject(array, rng):\n"
                "    pass\n"
            ),
            "src/repro/b.py": (
                "from repro.faults.inject import inject\n"
                "def run(array, rng):\n"
                "    inject(array, rng)\n"
            ),
        })
        summary = table.get("repro.b.run")
        assert summary.rng_sink_params == {0, 1}

    def test_transitive_sink_position(self):
        table = _summaries({
            "src/repro/faults/inject.py": (
                "def inject(array, rng):\n"
                "    pass\n"
            ),
            "src/repro/b.py": (
                "from repro.faults.inject import inject\n"
                "def run(array, rng):\n"
                "    inject(array, rng)\n"
            ),
            "src/repro/c.py": (
                "from repro.b import run\n"
                "def top(generator, arr):\n"
                "    run(arr, generator)\n"
            ),
        })
        # top's param 0 (generator) lands in run's position 1, a sink.
        summary = table.get("repro.c.top")
        assert summary.rng_sink_params == {0, 1}

    def test_keyword_argument_mapped_to_position(self):
        table = _summaries({
            "src/repro/faults/inject.py": (
                "def inject(array, rng):\n"
                "    pass\n"
            ),
            "src/repro/b.py": (
                "from repro.faults.inject import inject\n"
                "def run(array, rng):\n"
                "    inject([], rng)\n"
            ),
            "src/repro/c.py": (
                "from repro.b import run\n"
                "def top(arr, generator):\n"
                "    run(arr, rng=generator)\n"
            ),
        })
        assert table.get("repro.b.run").rng_sink_params == {1}
        # `rng=generator` maps back to run's position 1, a known sink;
        # `arr` lands at position 0, which is not.
        assert table.get("repro.c.top").rng_sink_params == {1}

    def test_import_alias_fallback_marks_stochastic_call(self):
        # Callee outside the linted tree: classification falls back to
        # the import path the name expands to.
        table = _summaries({
            "src/repro/a.py": (
                "import repro.faults.inject as fi\n"
                "def sink(array, rng):\n"
                "    fi.corrupt(rng)\n"
            ),
        })
        assert table.get("repro.a.sink").rng_sink_params == {1}

    def test_non_stochastic_callee_is_not_a_sink(self):
        table = _summaries({
            "src/repro/a.py": (
                "def helper(rng):\n"
                "    pass\n"
                "def run(rng):\n"
                "    helper(rng)\n"
            ),
        })
        assert table.get("repro.a.run").rng_sink_params == frozenset()


class TestCycles:
    def test_self_recursion_terminates(self):
        table = _summaries({
            "src/repro/a.py": (
                "import time\n"
                "def retry(n):\n"
                "    if n:\n"
                "        return retry(n - 1)\n"
                "    return time.monotonic()\n"
            ),
        })
        assert table.get("repro.a.retry").returns == frozenset({"monotonic"})

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


class TestWalkOwn:
    def test_skips_nested_function_bodies(self):
        fn = ast.parse(
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
            "    return x\n"
        ).body[0]
        names = {n.id for n in walk_own(fn) if isinstance(n, ast.Name)}
        assert "x" in names and "y" not in names

    def test_skips_lambda_bodies(self):
        fn = ast.parse(
            "def outer():\n"
            "    f = lambda: hidden()\n"
            "    return f\n"
        ).body[0]
        calls = [n for n in walk_own(fn) if isinstance(n, ast.Call)]
        assert calls == []
