"""Positive/negative fixtures for the flow rule REP101.

The rule also gets a "regression" fixture seeded from the real pattern
in the tree that motivated it.
"""

from repro.lint import REGISTRY, lint_source, lint_sources


def _codes(source, code, rel_path="src/repro/demo.py"):
    diags = lint_source(source, rel_path, selected=[REGISTRY[code]])
    return [d.code for d in diags]


def _diags(sources, code):
    result = lint_sources(sources, selected=[REGISTRY[code]])
    return result.diagnostics


class TestREP101LatencyTaint:
    def test_branch_drop_flagged(self):
        src = (
            "def f(ctrl, n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        lat = ctrl.write(i, b'x')\n"
            "        if i % 2:\n"
            "            total += lat\n"
            "    return total\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_accumulated_on_every_path_clean(self):
        src = (
            "def f(ctrl, n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        lat = ctrl.write(i, b'x')\n"
            "        total += lat\n"
            "    return total\n"
        )
        assert _codes(src, "REP101") == []

    def test_alias_then_return_clean(self):
        src = (
            "def f(ctrl):\n"
            "    lat = ctrl.write(0, b'x')\n"
            "    result = lat\n"
            "    return result\n"
        )
        assert _codes(src, "REP101") == []

    def test_explicit_discard_clean(self):
        src = (
            "def f(ctrl):\n"
            "    lat = ctrl.write(0, b'x')\n"
            "    _ = lat\n"
        )
        assert _codes(src, "REP101") == []

    def test_bare_expr_direct_call_left_to_rep002(self):
        # A bare `ctrl.write(...)` statement is REP002's syntactic
        # domain; REP101 must not double-report it.
        src = "def f(ctrl):\n    ctrl.write(0, b'x')\n"
        assert _codes(src, "REP101") == []
        assert "REP002" in _codes(src, "REP002")

    def test_write_many_branch_drop_flagged(self):
        src = (
            "def f(array, chunks):\n"
            "    total = 0.0\n"
            "    for las, datas in chunks:\n"
            "        lat = array.write_many(las, datas)\n"
            "        if las.size > 1:\n"
            "            total += lat\n"
            "    return total\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_run_trace_fast_name_call_is_a_source(self):
        # Bare-name latency functions must work through the taint
        # plumbing (the method-call path assumed ast.Attribute before).
        src = (
            "from repro.sim.engine import run_trace_fast\n"
            "def f(ctrl, trace, fallback):\n"
            "    res = run_trace_fast(ctrl, trace)\n"
            "    if fallback:\n"
            "        return None\n"
            "    return res\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_bare_run_trace_fast_left_to_rep002(self):
        src = (
            "def f(ctrl, trace):\n"
            "    run_trace_fast(ctrl, trace)\n"
        )
        assert _codes(src, "REP101") == []
        assert "REP002" in _codes(src, "REP002")

    def test_wrapper_returning_latency_tracked(self):
        src = (
            "def hammer(ctrl, la):\n"
            "    return ctrl.write(la, b'x')\n"
            "def attack(ctrl):\n"
            "    lat = hammer(ctrl, 1)\n"
            "    return 0\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_wrapper_bare_expr_discard_flagged(self):
        # REP002 cannot see through helpers; the wrapper case is
        # REP101's to catch even as a bare expression statement.
        src = (
            "def hammer(ctrl, la):\n"
            "    return ctrl.write(la, b'x')\n"
            "def attack(ctrl):\n"
            "    hammer(ctrl, 1)\n"
            "    return 0\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_dict_copy_not_a_latency_source(self):
        src = (
            "def f(d):\n"
            "    snapshot = d.copy()\n"
            "    return 0\n"
        )
        assert _codes(src, "REP101") == []

    def test_pcm_receiver_copy_is_a_latency_source(self):
        src = (
            "def f(array):\n"
            "    lat = array.copy(0, 1)\n"
            "    return 0\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_regression_oracle_probe_continue_path(self):
        # Seeded from RBSGTimingAttack.detect_sequence (rta_rbsg.py):
        # a probe loop that classified `extra` only on the observing
        # path and silently dropped it on the `continue` paths.
        src = (
            "class Attack:\n"
            "    def probe(self, budget):\n"
            "        for _i in range(budget):\n"
            "            extra = self.oracle.write(1, b'x')\n"
            "            info = self.mirror.count_write()\n"
            "            if info is None:\n"
            "                continue\n"
            "            self.classify(extra)\n"
            "        return 0\n"
        )
        assert _codes(src, "REP101") == ["REP101"]
        fixed = src.replace(
            "                continue\n",
            "                _ = extra\n                continue\n",
        )
        assert _codes(fixed, "REP101") == []


class TestSuppression:
    def test_flow_diagnostic_suppressible_with_reason(self):
        src = (
            "def f(ctrl, n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        # reprolint: disable=REP101 -- probe discards are benign\n"
            "        lat = ctrl.write(i, b'x')\n"
            "        if i % 2:\n"
            "            total += lat\n"
            "    return total\n"
        )
        assert _codes(src, "REP101") == []


class TestInterprocedural:
    """Summary-aware REP101: taint crosses call boundaries."""

    _CROSS = (
        "def issue_write(ctrl):\n"
        "    return ctrl.write(0, b'x')\n"
        "def f(ctrl, n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        lat = issue_write(ctrl)\n"
        "        if i % 2:\n"
        "            total += lat\n"
        "    return total\n"
    )

    def test_latency_through_helper_flagged(self):
        # The old intra-procedural pass could not see that
        # issue_write() returns a latency; the summaries can.
        diags = lint_source(self._CROSS, "src/repro/demo.py",
                            selected=[REGISTRY["REP101"]])
        assert [d.code for d in diags] == ["REP101"]
        assert "returns latency" in diags[0].message

    def test_latency_through_cross_module_helper_flagged(self):
        sources = {
            "src/repro/helpers.py": (
                "def issue_write(ctrl):\n"
                "    return ctrl.write(0, b'x')\n"
            ),
            "src/repro/demo.py": (
                "from repro.helpers import issue_write\n"
                "def f(ctrl, n):\n"
                "    total = 0\n"
                "    for i in range(n):\n"
                "        lat = issue_write(ctrl)\n"
                "        if i % 2:\n"
                "            total += lat\n"
                "    return total\n"
            ),
        }
        diags = _diags(sources, "REP101")
        assert [d.path for d in diags] == ["src/repro/demo.py"]

    def test_passthrough_keeps_token_alive(self):
        # scaled() passes its argument through, so the latency token
        # survives the call and its drop is still caught.
        src = (
            "def scaled(lat):\n"
            "    return lat * 2\n"
            "def f(ctrl, n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        lat = ctrl.write(i, b'x')\n"
            "        adjusted = scaled(lat)\n"
            "        if i % 2:\n"
            "            total += adjusted\n"
            "    return total\n"
        )
        assert _codes(src, "REP101") == ["REP101"]

    def test_consuming_helper_counts_as_use(self):
        # account() really uses the value — no finding.
        src = (
            "def account(log, lat):\n"
            "    log.append(lat)\n"
            "def f(ctrl, log, n):\n"
            "    for i in range(n):\n"
            "        lat = ctrl.write(i, b'x')\n"
            "        account(log, lat)\n"
        )
        assert _codes(src, "REP101") == []

    def test_intra_mode_misses_the_cross_boundary_case(self):
        # The regression that motivated the summaries: prove the old
        # mode is blind to helper-returned latencies.
        from repro.lint.callgraph import LintProject
        from repro.lint.diagnostics import LintModule
        from repro.lint.flowrules import rep101_diagnostics
        import ast as _ast

        project = LintProject([LintModule(
            rel_path="src/repro/demo.py", source=self._CROSS,
            tree=_ast.parse(self._CROSS),
        )])
        rule = REGISTRY["REP101"]
        intra = list(rep101_diagnostics(rule, project,
                                        interprocedural=False))
        inter = list(rep101_diagnostics(rule, project,
                                        interprocedural=True))
        assert intra == []
        assert [d.code for d in inter] == ["REP101"]

    def test_interprocedural_findings_superset_on_real_tree(self):
        """Acceptance: the summary-aware REP101 pass reports a superset
        of the intra-procedural findings on the shipped tree."""
        import ast as _ast
        from pathlib import Path

        from repro.lint.callgraph import LintProject
        from repro.lint.diagnostics import LintModule
        from repro.lint.flowrules import rep101_diagnostics
        from repro.lint.runner import iter_python_files

        src_repro = Path(__file__).resolve().parents[2] / "src" / "repro"
        modules = []
        for path in iter_python_files([src_repro]):
            source = path.read_text(encoding="utf-8")
            rel = str(path.relative_to(src_repro.parents[1]))
            modules.append(LintModule(rel_path=rel, source=source,
                                      tree=_ast.parse(source)))
        project = LintProject(modules)
        rule = REGISTRY["REP101"]
        intra = {(d.path, d.line, d.col) for d in rep101_diagnostics(
            rule, project, interprocedural=False)}
        inter = {(d.path, d.line, d.col) for d in rep101_diagnostics(
            rule, project, interprocedural=True)}
        assert intra <= inter
