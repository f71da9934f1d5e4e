"""The flow-sensitive rule family (REP101–REP104).

These rules run over the whole lint run at once (see
:class:`repro.lint.diagnostics.FlowRule`), combining the
intra-procedural taint engine (:mod:`repro.lint.flow`) with the
cross-module call graph (:mod:`repro.lint.callgraph`):

* **REP101 latency-taint** — the flow-sensitive superset of REP002: a
  latency value (from ``PCMArray.write/copy/swap/read_with_latency``,
  ``MemoryController.write``, scheme ``remap`` hooks, *or any helper
  wrapper that returns one of those*) must reach an accumulator, a
  return, an escaping store or an explicit ``_ =`` discard on **every**
  normal path.  REP002 remains the syntactic fallback for bare-Expr
  discards of the named methods; REP101 covers aliases, branches and
  wrapper indirection.
* **REP102 rng-provenance** — a generator built outside
  ``repro.util.rng`` (no seed, or a hard-coded constant seed) must not
  flow into a stochastic component (``faults`` / ``wearlevel`` /
  ``attacks`` / ``traffic``).
* **REP103 campaign-determinism** — everything reachable from a
  ``register_task_kind`` target runs inside worker processes in
  parallel; module-level mutable state, shared module-level RNGs,
  module-level file handles and ``global`` rebinding make those
  attempts schedule-dependent.
* **REP104 wall-clock-taint** — host-clock values (``time.time`` and
  friends) must never flow into simulated-latency arithmetic, even in
  files that legitimately read the wall clock (the REP005 waivers in
  ``repro.campaign``).

See ``docs/lint.md`` ("Flow rules") for examples and suppression
guidance.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import (
    FunctionInfo,
    LintProject,
    ModuleTable,
    StateKind,
    expand_dotted,
    find_task_registrations,
    local_imports,
)
from repro.lint.diagnostics import Diagnostic, FlowRule, register
from repro.lint.flow import PositionalHit, TaintSpec, TaintToken, analyze_function
from repro.lint.rules import WallClock, dotted_name, _identifier
from repro.lint.summaries import (
    LATENCY_FUNCTIONS,
    LATENCY_METHODS,
    STOCHASTIC_PARTS as _STOCHASTIC_PARTS,
    FunctionSummary,
    SummaryTable,
    fresh_rng_desc,
    is_latency_method_call,
    project_summaries,
    shown_callable as _shown_callable,
)

__all__ = [
    "LatencyTaint", "RngProvenance", "CampaignDeterminism",
    "WallClockTaint", "is_latency_method_call",
    "latency_returning_functions", "rep101_diagnostics",
]


def latency_returning_functions(project: LintProject) -> Set[str]:
    """Fully-qualified names of helpers that return a latency value.

    Backed by the interprocedural summary table (bottom-up over call
    graph SCCs, see :mod:`repro.lint.summaries`).
    """
    return {
        fq for fq, summary in project_summaries(project).items()
        if "latency" in summary.returns
    }


class _SummarySpec(TaintSpec):
    """Shared plumbing for summary-aware taint specs.

    Holds the resolution context (project/table/function) and
    implements :meth:`passthrough_params` from callee summaries, so a
    token passed through ``y = scale(lat)`` survives the call instead
    of being consumed by it.  ``summaries=None`` runs the spec in
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

    def _resolve(self, call: ast.Call) -> Optional[FunctionInfo]:
        return self.project.resolve_call(
            self.table, call, self.extra, self.info.class_name
        )

    def _callee_summary(
        self, call: ast.Call
    ) -> Tuple[Optional[FunctionInfo], Optional[FunctionSummary]]:
        if self.summaries is None:
            return None, None
        resolved = self._resolve(call)
        return resolved, self.summaries.for_function(resolved)

    def passthrough_params(
        self, call: ast.Call
    ) -> Optional[FrozenSet[int]]:
        resolved, summary = self._callee_summary(call)
        if summary is None or not summary.passthrough:
            return None
        offset = _self_offset(resolved)
        return frozenset(
            p - offset for p in summary.passthrough if p - offset >= 0
        )


def _self_offset(resolved: Optional[FunctionInfo]) -> int:
    """Caller arg position -> callee param index shift for methods."""
    if resolved is not None and resolved.class_name is not None:
        return 1
    return 0


# --------------------------------------------------------------- REP101


class _LatencySpec(_SummarySpec):
    """Taint spec: latency sources, everything-is-a-valid-use sinks."""

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


# --------------------------------------------------------------- REP102


class _RngSpec(_SummarySpec):
    """Taint spec: fresh/hard-coded generators, stochastic-call sinks."""

    def source(self, call: ast.Call) -> Optional[str]:
        desc = fresh_rng_desc(call)
        if desc is not None:
            return desc
        resolved, summary = self._callee_summary(call)
        if (resolved is not None and summary is not None
                and "rng" in summary.returns):
            return f"{resolved.qualname}() [returns unseeded generator]"
        return None

    def on_call_pos(
        self,
        call: ast.Call,
        hits: Sequence[PositionalHit],
    ) -> Optional[str]:
        resolved = self._resolve(call)
        if self.summaries is not None:
            positions = self.summaries.rng_sink_positions(
                self.table, call, resolved, self.extra
            )
        else:
            positions = _intra_rng_sink_positions(
                self.table, call, resolved, self.extra
            )
        if positions is None:
            return None
        dotted = dotted_name(call.func)
        callee = (
            resolved.qualname if resolved is not None
            else dotted if dotted is not None else "<call>"
        )
        if isinstance(positions, str):
            token = hits[0].token
            return (
                f"generator from {token.desc} reaches stochastic "
                f"{callee}(); derive it from repro.util.rng "
                "(derive_seed / as_generator) so replays stay seeded"
            )
        hit = _match_positions(hits, positions, resolved)
        if hit is None:
            return None
        slot = f"'{hit.kw}'" if hit.kw is not None else f"#{hit.pos}"
        return (
            f"generator from {hit.token.desc} reaches a stochastic "
            f"component through {callee}() (argument {slot}); derive it "
            "from repro.util.rng (derive_seed / as_generator) so "
            "replays stay seeded"
        )


def _intra_rng_sink_positions(
    table: ModuleTable,
    call: ast.Call,
    resolved: Optional[FunctionInfo],
    extra: Dict[str, str],
) -> Optional[str]:
    """Pre-summary REP102 sink test: stochastic modules only."""
    if resolved is not None:
        if set(resolved.modname.split(".")) & _STOCHASTIC_PARTS:
            return "any"
        return None
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    expanded = expand_dotted(table, dotted, extra)
    if expanded != dotted and set(expanded.split(".")) & _STOCHASTIC_PARTS:
        return "any"
    return None


def _match_positions(
    hits: Sequence[PositionalHit],
    positions: FrozenSet[int],
    resolved: Optional[FunctionInfo],
) -> Optional[PositionalHit]:
    """First tainted argument landing on a summary-flagged parameter."""
    offset = _self_offset(resolved)
    params: List[str] = []
    if resolved is not None:
        args = getattr(resolved.node, "args", None)
        if args is not None:
            params = [a.arg for a in args.posonlyargs + args.args]
    for hit in hits:
        if hit.pos is not None and (hit.pos + offset) in positions:
            return hit
        if (hit.kw is not None and hit.kw in params
                and params.index(hit.kw) in positions):
            return hit
    return None


@register
class RngProvenance(FlowRule):
    """Generators reaching stochastic components must come from
    ``repro.util.rng``.

    Campaign replays rely on every stochastic component being seeded
    through ``derive_seed``/``as_generator``.  A ``default_rng()`` (or
    a hard-coded ``default_rng(1234)``) constructed locally and handed
    to a fault model, wear-leveler or attack silently severs a whole
    subtree of an experiment from its root seed.
    """

    code = "REP102"
    name = "rng-provenance"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        summaries = project_summaries(project)
        for table in _sorted_tables(project):
            if table.module.is_rng_module:
                continue
            for info in _sorted_functions(table):
                spec = _RngSpec(project, table, info, summaries)
                analysis = analyze_function(info.node, spec)
                for hit in analysis.sink_hits:
                    yield self.diagnostic(table.module, hit.node, hit.detail)


# --------------------------------------------------------------- REP103


@register
class CampaignDeterminism(FlowRule):
    """Campaign task functions must be schedule-independent.

    Everything reachable from a ``register_task_kind`` target executes
    inside worker processes, many attempts at once.  Module-level
    mutable state (even *reads* — another worker's import may have
    mutated it), shared module-level RNG streams, module-level open
    file handles and ``global`` rebinding all make the result of one
    attempt depend on what the scheduler ran before it, which is
    exactly what the campaign layer's derive-seed contract forbids.
    """

    code = "REP103"
    name = "campaign-determinism"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        registrations = find_task_registrations(project)
        roots: List[FunctionInfo] = []
        kind_of: Dict[str, str] = {}
        for table, call, kind, target in registrations:
            label = kind if kind is not None else "?"
            if target is None:
                yield self.diagnostic(
                    table.module, call,
                    f"task kind '{label}' is registered with a callable "
                    "that is not a module-level function; closures and "
                    "lambdas capture schedule-dependent state and do not "
                    "survive worker spawn",
                )
                continue
            roots.append(target)
            kind_of.setdefault(target.fq, label)
        if not roots:
            return
        reached = project.reachable(roots)
        seen: Set[Tuple[str, int, str]] = set()
        for fq in sorted(reached):
            info, path = reached[fq]
            table = project.by_path[info.module.rel_path]
            via = kind_of.get(path[0], "?")
            chain = " -> ".join(p.rsplit(".", 1)[-1] for p in path)
            for diag in self._check_function(
                    project, table, info, via, chain, seen):
                yield diag

    def _check_function(
        self,
        project: LintProject,
        table: ModuleTable,
        info: FunctionInfo,
        kind: str,
        chain: str,
        seen: Set[Tuple[str, int, str]],
    ) -> Iterator[Diagnostic]:
        bound = _locally_bound_names(info.node)
        extra = local_imports(info.node)
        declared_global: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
                for name in node.names:
                    key = (table.module.rel_path, node.lineno, name)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.diagnostic(
                        table.module, node,
                        f"campaign task '{kind}' rebinds module-level "
                        f"'{name}' via 'global' (reached via {chain}); "
                        "worker attempts become schedule-dependent",
                    )
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Name):
                continue
            name = node.id
            if name in bound and name not in declared_global:
                continue
            state = _lookup_module_state(project, table, name, extra)
            if state is None or state[1] is StateKind.OTHER:
                continue
            owner, kind_found = state
            key = (table.module.rel_path, node.lineno, name)
            if key in seen:
                continue
            seen.add(key)
            what = {
                StateKind.MUTABLE: "module-level mutable state",
                StateKind.RNG: "a shared module-level RNG",
                StateKind.FILE: "a module-level open file handle",
            }[kind_found]
            yield self.diagnostic(
                table.module, node,
                f"campaign task '{kind}' touches {what} "
                f"'{name}' (defined in {owner}; reached via {chain}); "
                "parallel attempts become schedule-dependent — pass the "
                "state through params/seed instead",
            )


def _lookup_module_state(
    project: LintProject,
    table: ModuleTable,
    name: str,
    extra: Dict[str, str],
) -> Optional[Tuple[str, StateKind]]:
    """Resolve ``name`` to classified module-level state, if it is any.

    Checks the module's own state first, then chases one import hop to
    the owning module (``from repro.x import STATE``).  Returns the
    owner's module name and the state's :class:`StateKind`.
    """
    local = table.state.get(name)
    if local is not None:
        return table.modname, local.kind
    target = extra.get(name) or table.imports.get(name)
    if target is None or "." not in target:
        return None
    modname, symbol = target.rsplit(".", 1)
    owner = project.tables.get(modname)
    if owner is None:
        return None
    remote = owner.state.get(symbol)
    if remote is None:
        return None
    return owner.modname, remote.kind


def _locally_bound_names(fn: ast.AST) -> Set[str]:
    """Every name bound inside ``fn`` (params, assignments, loop and
    ``with`` targets, except-clauses, nested defs, local imports)."""
    bound: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for group in (args.posonlyargs, args.args, args.kwonlyargs):
            bound.update(a.arg for a in group)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass
    return bound


# --------------------------------------------------------------- REP104


_WALL_CLOCK_LEAVES = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "process_time_ns"}
)


def _is_sim_latency_name(name: Optional[str]) -> bool:
    """Names that denote *simulated* time (not host durations)."""
    if name is None:
        return False
    lowered = name.lower()
    return (
        "latency" in lowered
        or lowered.endswith("_ns")
        or lowered == "ns"
        or "elapsed_ns" in lowered
        or "simulated" in lowered
    )


class _WallClockSpec(_SummarySpec):
    """Taint spec: host-clock sources, simulated-latency sinks."""

    def source(self, call: ast.Call) -> Optional[str]:
        dotted = dotted_name(call.func)
        if dotted is not None:
            if dotted in WallClock._BANNED_DOTTED:
                return f"{dotted}()"
            expanded = expand_dotted(self.table, dotted, self.extra)
            if expanded != dotted:
                if expanded in WallClock._BANNED_DOTTED:
                    return f"{dotted}()"
                if ("." not in dotted and expanded.startswith("time.")
                        and expanded.split(".")[-1] in _WALL_CLOCK_LEAVES):
                    return f"{dotted}()"
        resolved, summary = self._callee_summary(call)
        if (resolved is not None and summary is not None
                and summary.returns & {"wallclock", "monotonic"}):
            return f"{resolved.qualname}() [returns host-clock value]"
        return None

    def on_bind(
        self, name: str, tokens: Sequence[TaintToken], node: ast.AST
    ) -> Optional[str]:
        if not _is_sim_latency_name(name):
            return None
        return (
            f"wall-clock value from {tokens[0].desc} flows into "
            f"simulated-latency name '{name}'; simulated time must come "
            "from elapsed_ns, never the host clock"
        )

    def on_binop(
        self,
        binop: ast.BinOp,
        tokens: Sequence[TaintToken],
        other: ast.AST,
    ) -> Optional[str]:
        if not _is_sim_latency_name(_identifier(other)):
            return None
        return (
            f"wall-clock value from {tokens[0].desc} mixed into "
            f"arithmetic with simulated-latency "
            f"'{_identifier(other)}'; host time and simulated time "
            "must never meet"
        )


@register
class WallClockTaint(FlowRule):
    """Host-clock values must never reach simulated-latency arithmetic.

    REP005 bans wall-clock reads in simulator code wholesale, but the
    campaign/progress layers legitimately waive it for host-side
    throughput accounting.  This rule guards the boundary those waivers
    open: a ``time.perf_counter()`` value that flows into a
    ``*latency*`` / ``*_ns`` computation corrupts the side channel no
    matter which file it happens in.
    """

    code = "REP104"
    name = "wall-clock-taint"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        summaries = project_summaries(project)
        for table in _sorted_tables(project):
            for info in _sorted_functions(table):
                spec = _WallClockSpec(project, table, info, summaries)
                analysis = analyze_function(info.node, spec)
                for hit in analysis.sink_hits:
                    yield self.diagnostic(table.module, hit.node, hit.detail)


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
