"""The simulator-invariant rules (REP001–REP007).

Every result this repository reproduces rests on two properties the test
suite cannot economically check: the simulator is **bit-deterministic
under a seed**, and it **never silently drops latency** on the
attacker-observable write path.  These rules encode those invariants —
plus three classic Python footguns that erode them indirectly, and the
architectural rule that parallelism lives only in ``repro.campaign`` —
as AST checks.

See ``docs/lint.md`` for the rationale, examples and suppression syntax
of each rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.lint.diagnostics import Diagnostic, LintModule, Rule, register


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains to a string; None otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _identifier(node: ast.AST) -> Optional[str]:
    """Final identifier of a Name/Attribute (``x.elapsed_ns`` -> ``elapsed_ns``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# --------------------------------------------------------------- REP001


@register
class UnseededRandomness(Rule):
    """No unseeded or global-state randomness outside ``repro.util.rng``.

    A single ``np.random.rand()`` or no-argument ``default_rng()`` makes a
    run irreproducible: the RTA success rates, lifetime curves and fault
    campaigns can no longer be replayed bit-for-bit from a seed.  All
    stochastic code must thread a seed/Generator through
    ``repro.util.rng.as_generator``.
    """

    code = "REP001"
    name = "unseeded-randomness"

    #: ``default_rng``-style constructors that are fine *with* a seed.
    _SEEDABLE = {"default_rng", "as_generator", "RandomState", "Generator"}

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        if module.is_rng_module:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.diagnostic(
                            module, node,
                            "import of stdlib 'random' (unseedable global "
                            "state); use repro.util.rng.as_generator",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.diagnostic(
                        module, node,
                        "import from stdlib 'random' (unseedable global "
                        "state); use repro.util.rng.as_generator",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(
        self, module: LintModule, node: ast.Call
    ) -> Iterator[Diagnostic]:
        dotted = dotted_name(node.func)
        seeded = bool(node.args) or bool(node.keywords)
        if dotted is None:
            return
        root = dotted.split(".")[0]
        leaf = dotted.split(".")[-1]
        if dotted.startswith(("np.random.", "numpy.random.")):
            if leaf in self._SEEDABLE:
                if not seeded:
                    yield self.diagnostic(
                        module, node,
                        f"{dotted}() without a seed is irreproducible; "
                        "pass an explicit seed or Generator",
                    )
            else:
                yield self.diagnostic(
                    module, node,
                    f"{dotted}() draws from the global NumPy RNG; thread "
                    "a seeded Generator (repro.util.rng.as_generator) "
                    "instead",
                )
        elif root == "random" and "." in dotted:
            yield self.diagnostic(
                module, node,
                f"{dotted}() uses the unseeded stdlib RNG; use "
                "repro.util.rng.as_generator",
            )
        elif leaf in ("default_rng", "as_generator") and not seeded:
            # ``from numpy.random import default_rng`` /
            # ``from repro.util.rng import as_generator`` call styles,
            # including through an aliased module object.
            yield self.diagnostic(
                module, node,
                f"{dotted}() without a seed is irreproducible; pass an "
                "explicit seed or Generator",
            )


# --------------------------------------------------------------- REP002


@register
class DiscardedLatency(Rule):
    """No discarded latency on the attacker-observable write path.

    ``PCMArray.write/copy/swap/write_many/write_events/read_with_latency``,
    ``MemoryController.write/write_chunk`` and scheme ``remap`` hooks
    *return* the operation's latency in nanoseconds — the paper's timing
    side channel.  The batched drivers are sinks of the same kind:
    ``run_trace_fast`` returns the ``SimulationResult`` holding the
    elapsed time its chunks accumulated, and the fast-forward tier's
    sinks (``scheme.apply_round`` returns the round's elapsed ns,
    ``array.apply_wear_bulk`` returns the commit/refuse verdict,
    ``run_fast_forward`` returns the combined result) are just as easy
    to drop on the floor.  Calling one as a bare
    expression statement silently drops that number; an experiment that
    should observe it will quietly measure nothing.  Assign the result
    (``_ = controller.write(...)`` for an intentional discard) or
    suppress with a reason.
    """

    code = "REP002"
    name = "discarded-latency"

    _LATENCY_METHODS = frozenset(
        {
            "write", "copy", "swap", "read_with_latency", "remap",
            "write_many", "write_events", "write_chunk", "apply_round",
            "apply_wear_bulk",
        }
    )
    #: Module-level latency-carrying functions, recognised whether called
    #: bare (``run_trace_fast(...)``) or through a module attribute
    #: (``engine.run_trace_fast(...)``).
    _LATENCY_FUNCTIONS = frozenset({"run_trace_fast", "run_fast_forward"})
    #: Receivers whose ``.write()`` is file-like, not PCM-like.
    _FILELIKE = frozenset(
        {
            "f", "fh", "fp", "fd", "file", "out", "output", "stream",
            "buf", "buffer", "stdout", "stderr", "sock", "writer", "log",
            "logger", "handle", "csvfile",
        }
    )

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if isinstance(func, ast.Name):
                if func.id not in self._LATENCY_FUNCTIONS:
                    continue
                shown = func.id
            elif isinstance(func, ast.Attribute):
                if (func.attr not in self._LATENCY_METHODS
                        and func.attr not in self._LATENCY_FUNCTIONS):
                    continue
                receiver = _identifier(func.value)
                if (receiver is not None
                        and receiver.lower().lstrip("_") in self._FILELIKE):
                    continue
                shown = f"{receiver}.{func.attr}" if receiver else func.attr
            else:
                continue
            yield self.diagnostic(
                module, node,
                f"return value of {shown}() (latency in ns) is discarded; "
                "assign it, or suppress with "
                "'# reprolint: disable=REP002 <reason>' if the discard "
                "is intentional",
            )


# --------------------------------------------------------------- REP003


@register
class FloatTimeEquality(Rule):
    """No ``==``/``!=`` on latency- or time-valued floats.

    Simulated time is a float accumulated over millions of additions;
    exact equality is representation-dependent and breaks the moment a
    latency term is reordered or a new model adds a fractional cost.
    Compare against a tolerance (``math.isclose``/``pytest.approx``) or
    compare integer write counts instead.
    """

    code = "REP003"
    name = "float-time-equality"

    _SUBSTRINGS = ("latency", "elapsed", "duration")

    @classmethod
    def _is_timeish(cls, node: ast.AST) -> bool:
        ident = _identifier(node)
        if ident is None:
            return False
        lowered = ident.lower()
        if any(sub in lowered for sub in cls._SUBSTRINGS):
            return True
        return (
            lowered.endswith("_ns")
            or lowered in ("ns", "time")
            or lowered.endswith("_time")
            or lowered.startswith("time_")
        )

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands: Sequence[ast.AST] = [node.left, *node.comparators]
            for idx, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[idx], operands[idx + 1]
                for side in (left, right):
                    if self._is_timeish(side):
                        ident = _identifier(side)
                        yield self.diagnostic(
                            module, node,
                            f"exact float comparison on time-valued "
                            f"'{ident}'; use math.isclose or an integer "
                            "event count",
                        )
                        break


# --------------------------------------------------------------- REP004


@register
class MutableDefaultArgument(Rule):
    """No mutable default arguments.

    A ``def run(stats=[])`` shares one list across *every* call — state
    leaks between experiments that must be independent, which is exactly
    the cross-run coupling a reproduction cannot afford.  Default to
    ``None`` and allocate inside the function.
    """

    code = "REP004"
    name = "mutable-default-argument"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "deque",
         "Counter", "OrderedDict"}
    )

    @classmethod
    def _is_mutable(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _identifier(node.func)
            return name in cls._MUTABLE_CALLS
        return False

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.diagnostic(
                        module, default,
                        f"mutable default argument in {node.name}() is "
                        "shared across calls; default to None and "
                        "allocate per call",
                    )


# --------------------------------------------------------------- REP005


@register
class WallClock(Rule):
    """No wall-clock reads in simulator code.

    The simulator's only clock is ``elapsed_ns``, advanced by the timing
    model.  ``time.time()``/``datetime.now()`` make behaviour depend on
    host speed, which both breaks determinism and pollutes
    latency-derived results.  Benchmarks (under ``benchmarks/``) and
    tests are exempt — measuring host time is their job.
    """

    code = "REP005"
    name = "wall-clock"

    _BANNED_DOTTED = frozenset(
        {
            "time.time", "time.time_ns", "time.monotonic",
            "time.monotonic_ns", "time.perf_counter",
            "time.perf_counter_ns", "time.process_time",
            "time.process_time_ns",
            "datetime.now", "datetime.utcnow", "datetime.today",
            "datetime.datetime.now", "datetime.datetime.utcnow",
            "datetime.datetime.today", "datetime.date.today",
            "date.today",
        }
    )
    _BANNED_IMPORTS = {
        "time": {"time", "time_ns", "monotonic", "monotonic_ns",
                 "perf_counter", "perf_counter_ns", "process_time",
                 "process_time_ns"},
        "datetime": set(),  # importing datetime types is fine; calls are not
    }
    _EXEMPT_PARTS = frozenset({"benchmarks", "tests"})

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        if self._EXEMPT_PARTS.intersection(module.parts):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in self._BANNED_DOTTED:
                    yield self.diagnostic(
                        module, node,
                        f"wall-clock read {dotted}() in simulator code; "
                        "simulated time must come from elapsed_ns",
                    )
            elif isinstance(node, ast.ImportFrom):
                banned = self._BANNED_IMPORTS.get(node.module or "")
                if not banned:
                    continue
                for alias in node.names:
                    if alias.name in banned:
                        yield self.diagnostic(
                            module, node,
                            f"import of wall-clock '{alias.name}' from "
                            f"'{node.module}'; simulated time must come "
                            "from elapsed_ns",
                        )


# --------------------------------------------------------------- REP006


@register
class ModuleLevelMutableState(Rule):
    """No module-level mutable state in
    ``wearlevel``/``pcm``/``sim``/``traffic``.

    A module-level list/dict/set in the simulation packages survives
    across experiments in one process: run A's wear history can leak
    into run B, silently breaking seed-replay.  Use a tuple/frozenset
    for constants, or move the state into a class the experiment
    constructs.  Dunder names (``__all__``) are exempt.
    """

    code = "REP006"
    name = "module-level-mutable-state"

    _SCOPED_PARTS = frozenset({"wearlevel", "pcm", "sim", "traffic"})
    _MUTABLE_CALLS = MutableDefaultArgument._MUTABLE_CALLS

    def _module_statements(self, tree: ast.Module) -> Iterator[ast.stmt]:
        """Module body, descending one level into top-level If/Try."""
        for stmt in tree.body:
            yield stmt
            if isinstance(stmt, ast.If):
                yield from stmt.body
                yield from stmt.orelse
            elif isinstance(stmt, ast.Try):
                yield from stmt.body
                for handler in stmt.handlers:
                    yield from handler.body
                yield from stmt.orelse
                yield from stmt.finalbody

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        if not self._SCOPED_PARTS.intersection(module.parts):
            return
        for stmt in self._module_statements(module.tree):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [
                t.id for t in targets
                if isinstance(t, ast.Name)
            ]
            if not names or all(
                n.startswith("__") and n.endswith("__") for n in names
            ):
                continue
            if MutableDefaultArgument._is_mutable(value):
                yield self.diagnostic(
                    module, stmt,
                    f"module-level mutable state '{', '.join(names)}' "
                    "couples runs in one process; use a tuple/frozenset "
                    "or construct it per experiment",
                )


# --------------------------------------------------------------- REP007


@register
class ParallelismOutsideCampaign(Rule):
    """Process parallelism lives in ``repro.campaign``.

    ``repro.campaign.runner`` is the one audited fan-out: it derives
    per-task seeds from task identity (not from scheduling), checkpoints
    durably, and isolates worker crashes.  An ad-hoc ``Pool`` or
    ``ProcessPoolExecutor`` elsewhere re-introduces exactly the
    schedule-dependent seeding and silent partial results the campaign
    layer exists to prevent — route the work through
    ``repro.campaign.run_collect``/``run_tasks`` instead.  Tests and
    benchmarks are exempt.
    """

    code = "REP007"
    name = "parallelism-outside-campaign"

    _PREFIXES = ("multiprocessing", "concurrent.futures")
    _EXEMPT_PARTS = frozenset({"tests", "benchmarks", "campaign"})
    _ADVICE = (
        "outside repro.campaign; use the campaign runner "
        "(repro.campaign.run_collect/run_tasks) for parallel work"
    )

    def _matches(self, module_name: str) -> bool:
        return any(
            module_name == prefix or module_name.startswith(prefix + ".")
            for prefix in self._PREFIXES
        )

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        if self._EXEMPT_PARTS.intersection(module.parts):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._matches(alias.name):
                        yield self.diagnostic(
                            module, node,
                            f"import of '{alias.name}' {self._ADVICE}",
                        )
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if self._matches(source):
                    yield self.diagnostic(
                        module, node,
                        f"import from '{source}' {self._ADVICE}",
                    )
                elif source == "concurrent" and any(
                    alias.name == "futures" for alias in node.names
                ):
                    yield self.diagnostic(
                        module, node,
                        f"import of 'concurrent.futures' {self._ADVICE}",
                    )
