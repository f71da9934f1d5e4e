"""The flow-sensitive rule REP101 (latency-taint).

REP101 runs over the whole lint run at once (see
:class:`repro.lint.diagnostics.FlowRule`), combining the
intra-procedural taint engine (:mod:`repro.lint.flow`) with the
cross-module call graph (:mod:`repro.lint.callgraph`) and the function
summaries (:mod:`repro.lint.summaries`): a latency value (from
``PCMArray.write/copy/swap/read_with_latency``,
``MemoryController.write``, scheme ``remap`` hooks, *or any helper
wrapper that returns one of those*) must reach an accumulator, a
return, an escaping store or an explicit ``_ =`` discard on **every**
normal path.  REP002 remains the syntactic fallback for bare-Expr
discards of the named methods; REP101 covers aliases, branches and
wrapper indirection.

See ``docs/lint.md`` ("The flow rule REP101") for examples and
suppression guidance.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    LintProject,
    ModuleTable,
    local_imports,
)
from repro.lint.diagnostics import Diagnostic, FlowRule, register
from repro.lint.flow import TaintSpec, analyze_function
from repro.lint.summaries import (
    FunctionSummary,
    SummaryTable,
    is_latency_method_call,
    project_summaries,
    shown_callable as _shown_callable,
)

__all__ = ["LatencyTaint", "is_latency_method_call", "rep101_diagnostics"]


class _LatencySpec(TaintSpec):
    """Taint spec: latency sources, everything-is-a-valid-use sinks.

    Holds the resolution context (project/table/function) so a helper
    whose summary returns a latency is a source too, and implements
    :meth:`passthrough_params` from callee summaries, so a token passed
    through ``y = scale(lat)`` survives the call instead of being
    consumed by it.  ``summaries=None`` runs the spec in
    intra-procedural mode (the pre-summary behaviour) — used by the
    superset regression test and nothing else.
    """

    def __init__(
        self,
        project: LintProject,
        table: ModuleTable,
        info: FunctionInfo,
        summaries: Optional[SummaryTable],
    ) -> None:
        self.project = project
        self.table = table
        self.info = info
        self.summaries = summaries
        self.extra = local_imports(info.node)

    def _callee_summary(
        self, call: ast.Call
    ) -> Tuple[Optional[FunctionInfo], Optional[FunctionSummary]]:
        if self.summaries is None:
            return None, None
        resolved = self.project.resolve_call(
            self.table, call, self.extra, self.info.class_name
        )
        return resolved, self.summaries.for_function(resolved)

    def source(self, call: ast.Call) -> Optional[str]:
        if is_latency_method_call(call):
            return f"{_shown_callable(call)}()"
        resolved, summary = self._callee_summary(call)
        if (resolved is not None and summary is not None
                and "latency" in summary.returns):
            return f"{resolved.qualname}() [returns latency]"
        return None

    def skip_bare_expr_source(self, call: ast.Call) -> bool:
        """Bare-statement discards of the *named* methods stay REP002's
        (syntactic) findings; REP101 keeps wrapper discards."""
        return is_latency_method_call(call)

    def passthrough_params(
        self, call: ast.Call
    ) -> Optional[FrozenSet[int]]:
        resolved, summary = self._callee_summary(call)
        if summary is None or not summary.passthrough:
            return None
        # Caller arg position -> callee param index: a method's
        # summary counts ``self`` at 0.
        offset = (
            1 if resolved is not None and resolved.class_name is not None
            else 0
        )
        return frozenset(
            p - offset for p in summary.passthrough if p - offset >= 0
        )


@register
class LatencyTaint(FlowRule):
    """Latency values must be consumed on every path.

    The write path's return value *is* the paper's timing side channel.
    REP002 already catches a bare ``controller.write(la, data)``
    statement; this rule follows the value after it is *assigned* —
    through aliases, branches and helper wrappers — and fires when any
    normal path to the end of the function drops it unconsumed.  Consume
    means: accumulate (``total += lat``), return, pass to a call, store
    into an object, branch on it, or discard explicitly (``_ = ...``).
    """

    code = "REP101"
    name = "latency-taint"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        yield from rep101_diagnostics(self, project, interprocedural=True)


def rep101_diagnostics(
    rule: FlowRule,
    project: LintProject,
    interprocedural: bool = True,
) -> Iterator[Diagnostic]:
    """REP101 findings; ``interprocedural=False`` disables summaries.

    The intra-procedural mode exists only so the regression suite can
    prove the summary-aware pass reports a *superset* of the old one.
    """
    summaries = project_summaries(project) if interprocedural else None
    for table in _sorted_tables(project):
        for info in _sorted_functions(table):
            spec = _LatencySpec(project, table, info, summaries)
            analysis = analyze_function(info.node, spec)
            for token in analysis.pending_at_exit:
                holder = (
                    f"assigned to '{token.first_holder}' "
                    if token.first_holder else "discarded unnamed "
                )
                yield rule.diagnostic(
                    table.module,
                    _at(token.site),
                    f"latency from {token.desc} {holder}in "
                    f"{info.qualname}() is dropped on some path; "
                    "accumulate it, return it, or discard explicitly "
                    "with '_ = ...'",
                )


# --------------------------------------------------------------- shared


def _sorted_tables(project: LintProject) -> List[ModuleTable]:
    return [project.tables[name] for name in sorted(project.tables)]


def _sorted_functions(table: ModuleTable) -> List[FunctionInfo]:
    infos = list(table.functions.values())
    infos.sort(key=lambda i: (i.node.lineno, i.qualname))  # type: ignore[attr-defined]
    return infos


class _Anchor:
    """Minimal AST-node stand-in carrying a location."""

    def __init__(self, line: int, col: int) -> None:
        self.lineno = line
        self.col_offset = col


def _at(site: Tuple[int, int]) -> ast.AST:
    anchor = _Anchor(site[0], site[1])
    return anchor  # type: ignore[return-value]
