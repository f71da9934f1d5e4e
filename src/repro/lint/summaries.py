"""Interprocedural function summaries for the flow rule REP101.

The intra-procedural taint engine (:mod:`repro.lint.flow`) stops at
call boundaries: ``lat = helper(...)`` is opaque unless something knows
what ``helper`` does with and to its values.  This module computes one
:class:`FunctionSummary` per statically-known function, bottom-up over
the strongly connected components of the project call graph, so
REP101 can ask:

* **returns** — which taint dimensions the return value carries
  (``latency`` is the one dimension tracked);
* **passthrough** — which positional parameters flow *unmodified* to a
  return (``def scaled(lat): return lat * 2``), so a caller's taint
  token survives the call instead of being consumed by it.

SCC order makes the analysis one pass for acyclic call graphs; inside a
cycle the member summaries are iterated to a fixpoint (the dimensions
are finite sets, so iteration always terminates).  Unresolvable calls
(methods on arbitrary objects, builtins, callables passed as values)
contribute nothing — the summaries are deliberately a *may*
under-approximation that never guesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    LintProject,
    ModuleTable,
    local_imports,
)
from repro.lint.rules import DiscardedLatency, _identifier

# --------------------------------------------------------- call classing

#: Methods whose return value is a latency (REP002's list).
LATENCY_METHODS = DiscardedLatency._LATENCY_METHODS
#: Module-level latency-carrying functions (bare-name calls count too).
LATENCY_FUNCTIONS = DiscardedLatency._LATENCY_FUNCTIONS
_FILELIKE = DiscardedLatency._FILELIKE

#: ``copy``/``swap`` exist on dicts, lists and ndarrays too; only treat
#: them as latency sources on receivers that look like memory devices.
_AMBIGUOUS_METHODS = frozenset({"copy", "swap"})
_PCM_RECEIVERS = ("array", "controller", "oracle", "pcm", "mem")

def is_latency_method_call(call: ast.Call) -> bool:
    """Syntactic test: does this call return a latency by convention?"""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in LATENCY_FUNCTIONS
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in LATENCY_FUNCTIONS:
        return True
    if func.attr not in LATENCY_METHODS:
        return False
    receiver = _identifier(func.value)
    if receiver is not None:
        lowered = receiver.lower().lstrip("_")
        if lowered in _FILELIKE:
            return False
        if func.attr in _AMBIGUOUS_METHODS:
            return any(part in lowered for part in _PCM_RECEIVERS)
    return True


def shown_callable(call: ast.Call) -> str:
    """Human-readable name of a call (Name or Attribute form)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        receiver = _identifier(func.value)
        return f"{receiver}.{func.attr}" if receiver else func.attr
    return "<call>"


# ------------------------------------------------------------- summaries


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one statically-known function."""

    fq: str
    #: Taint dimensions carried by the return value (``latency``).
    returns: FrozenSet[str]
    #: Positional parameter indices (including ``self`` at 0 for
    #: methods) that flow unmodified to a return expression and are
    #: used nowhere else.
    passthrough: FrozenSet[int]


def _positional_params(fn: ast.AST) -> List[str]:
    args = getattr(fn, "args", None)
    if args is None:
        return []
    return [a.arg for a in args.posonlyargs + args.args]


def _tarjan_sccs(
    nodes: Sequence[str], edges: Dict[str, List[str]]
) -> List[List[str]]:
    """Strongly connected components, emitted callees-before-callers."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            succs = edges.get(node, [])
            descended = False
            while child < len(succs):
                succ = succs[child]
                child += 1
                if succ not in index:
                    work[-1] = (node, child)
                    work.append((succ, 0))
                    descended = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if descended:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


class SummaryTable:
    """All function summaries of one :class:`LintProject`."""

    def __init__(self, project: LintProject) -> None:
        self.project = project
        self._summaries: Dict[str, FunctionSummary] = {}
        self._infos: Dict[str, FunctionInfo] = {}
        self._extra: Dict[str, Dict[str, str]] = {}
        self._build()

    # -- lookup ------------------------------------------------------

    def get(self, fq: str) -> Optional[FunctionSummary]:
        return self._summaries.get(fq)

    def for_function(
        self, info: Optional[FunctionInfo]
    ) -> Optional[FunctionSummary]:
        if info is None:
            return None
        return self._summaries.get(info.fq)

    def items(self) -> List[Tuple[str, FunctionSummary]]:
        return sorted(self._summaries.items())

    # -- construction ------------------------------------------------

    def _build(self) -> None:
        for table in self.project.tables.values():
            for info in table.functions.values():
                self._infos[info.fq] = info
        edges: Dict[str, List[str]] = {}
        for fq in sorted(self._infos):
            info = self._infos[fq]
            callees: Set[str] = set()
            for _, resolved in self.project.iter_calls(info):
                if resolved is not None and resolved.fq in self._infos:
                    callees.add(resolved.fq)
            edges[fq] = sorted(callees)
        for scc in _tarjan_sccs(sorted(self._infos), edges):
            changed = True
            while changed:
                changed = False
                for fq in scc:
                    summary = self._compute(self._infos[fq])
                    if self._summaries.get(fq) != summary:
                        self._summaries[fq] = summary
                        changed = True

    def _local_imports(self, info: FunctionInfo) -> Dict[str, str]:
        cached = self._extra.get(info.fq)
        if cached is None:
            cached = local_imports(info.node)
            self._extra[info.fq] = cached
        return cached

    def _compute(self, info: FunctionInfo) -> FunctionSummary:
        table = self.project.by_path[info.module.rel_path]
        extra = self._local_imports(info)
        return FunctionSummary(
            fq=info.fq,
            returns=self._return_dims(info, table, extra),
            passthrough=self._passthrough_params(info),
        )

    # -- returns -----------------------------------------------------

    def call_dims(
        self,
        table: ModuleTable,
        info: FunctionInfo,
        call: ast.Call,
        extra: Dict[str, str],
    ) -> FrozenSet[str]:
        """Taint dimensions of one call's return value."""
        dims: Set[str] = set()
        if is_latency_method_call(call):
            dims.add("latency")
        resolved = self.project.resolve_call(
            table, call, extra, info.class_name
        )
        if resolved is not None:
            summary = self._summaries.get(resolved.fq)
            if summary is not None:
                dims |= summary.returns
        return frozenset(dims)

    def _return_dims(
        self,
        info: FunctionInfo,
        table: ModuleTable,
        extra: Dict[str, str],
    ) -> FrozenSet[str]:
        tainted: Dict[str, Set[str]] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                dims = self.call_dims(table, info, node.value, extra)
                if dims:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.setdefault(
                                target.id, set()).update(dims)
        returned: Set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Call):
                    returned |= self.call_dims(table, info, sub, extra)
                elif isinstance(sub, ast.Name):
                    returned |= tainted.get(sub.id, set())
        return frozenset(returned)

    # -- passthrough -------------------------------------------------

    def _passthrough_params(self, info: FunctionInfo) -> FrozenSet[int]:
        params = _positional_params(info.node)
        through: Set[int] = set()
        for idx, name in enumerate(params):
            if name in ("self", "cls"):
                continue
            if _is_pure_passthrough(info.node, name):
                through.add(idx)
        return frozenset(through)

def _is_pure_passthrough(fn: ast.AST, param: str) -> bool:
    """True when ``param`` (and its aliases) only flow to a return."""
    aliases: Set[str] = {param}
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.targets[0].id not in aliases):
                aliases.add(node.targets[0].id)
                changed = True
    allowed_loads: Set[int] = set()
    allowed_stores: Set[int] = set()
    returned = False
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            allowed_loads.add(id(node.value))
            allowed_stores.add(id(node.targets[0]))
        elif isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id in aliases:
                    allowed_loads.add(id(sub))
                    returned = True
    for node in ast.walk(fn):
        if not isinstance(node, ast.Name) or node.id not in aliases:
            continue
        if isinstance(node.ctx, ast.Load):
            if id(node) not in allowed_loads:
                return False
        elif id(node) not in allowed_stores:
            return False
    return returned


def project_summaries(project: LintProject) -> SummaryTable:
    """The (memoised) summary table of one lint project."""
    cached = project.summary_cache
    if isinstance(cached, SummaryTable):
        return cached
    built = SummaryTable(project)
    project.summary_cache = built
    return built
