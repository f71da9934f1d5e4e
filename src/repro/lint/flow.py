"""Intra-procedural CFG + forward-dataflow (taint) engine for reprolint.

The flow rule REP101 (:mod:`repro.lint.flowrules`) needs more than
per-node pattern matching: *"is this latency value consumed on
every path?"* is a property of the control-flow graph, not of any single
AST node.  This module supplies the two reusable pieces:

* :func:`build_cfg` — a statement-level control-flow graph for one
  ``ast.FunctionDef``: ``if``/``else``, ``while``/``for`` (with
  ``break``/``continue`` and loop ``else``), ``try``/``except``/
  ``finally``, ``with``, early ``return`` and ``raise``.  Normal
  termination (returns and fall-through) reaches :attr:`CFG.exit`;
  exception exits reach the separate :attr:`CFG.raise_exit`, so
  analyses can ignore abandoned-by-exception paths.
* :class:`TaintAnalysis` — a forward *may*-analysis over that CFG.  The
  abstract state maps **taint tokens** (one per source call site) to
  the set of local names currently holding the value.  Joins are set
  unions, so "pending on *some* path into this point" is represented
  exactly; loops converge because re-executing a source statement
  regenerates the *same* token (token identity = source location).

A :class:`TaintSpec` plugs the domain in: which calls create tokens,
and which calls pass an argument through.  Consumption is conservative —
any load of a holding name (argument, arithmetic, comparison, return,
subscript, closure capture...) consumes the token on that path; plain
``y = x`` aliasing transfers the token instead, and rebinding a name
drops its holdings without consuming them.  Assigning to ``_`` (or any
underscore-prefixed name) is an explicit discard.

Everything is stdlib ``ast``; there is nothing to install.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Location of the source call that minted a token: ``(line, col)``.
TokenSite = Tuple[int, int]

#: Abstract state: pending token -> names currently holding its value.
#: A token with an empty holder set can never be consumed again on this
#: path — its value was overwritten without a use.
State = Dict[TokenSite, FrozenSet[str]]


# ------------------------------------------------------------------ CFG


@dataclass
class Block:
    """One CFG node: a single statement (or a synthetic entry/exit)."""

    bid: int
    #: ``entry`` / ``exit`` / ``raise`` / ``stmt`` / ``test`` (If, While,
    #: Match subject) / ``for`` / ``with`` / ``handler``.
    kind: str
    node: Optional[ast.AST]
    succs: List[int] = field(default_factory=list)

    def link(self, succ: int) -> None:
        if succ not in self.succs:
            self.succs.append(succ)


@dataclass
class CFG:
    """Statement-level control-flow graph of one function body."""

    fn: ast.AST
    blocks: Dict[int, Block]
    entry: int
    exit: int
    #: Synthetic sink for ``raise`` paths (and uncaught exceptions out of
    #: ``try`` bodies).  Kept apart from :attr:`exit` so every-path rules
    #: do not flag values abandoned by an error bail-out.
    raise_exit: int

    def block(self, bid: int) -> Block:
        return self.blocks[bid]

    def paths_to_exit(self) -> int:
        """Count distinct acyclic entry->exit paths (test introspection)."""
        seen: Set[int] = set()

        def walk(bid: int) -> int:
            if bid == self.exit:
                return 1
            if bid in seen:
                return 0
            seen.add(bid)
            total = sum(walk(s) for s in self.blocks[bid].succs)
            seen.discard(bid)
            return total

        return walk(self.entry)


@dataclass
class _Loop:
    header: int
    breaks: List[int] = field(default_factory=list)


class _CFGBuilder:
    """Recursive-descent CFG construction; one instance per function."""

    def __init__(self, fn: ast.AST) -> None:
        self.fn = fn
        self.blocks: Dict[int, Block] = {}
        self._next = 0
        self.entry = self._new("entry", None).bid
        self.exit = self._new("exit", None).bid
        self.raise_exit = self._new("raise", None).bid
        self._loops: List[_Loop] = []
        #: Innermost active ``except`` clause entries: any statement
        #: inside the guarded body may transfer there.
        self._handlers: List[List[int]] = []

    # -- plumbing ----------------------------------------------------

    def _new(self, kind: str, node: Optional[ast.AST]) -> Block:
        block = Block(self._next, kind, node)
        self.blocks[self._next] = block
        self._next += 1
        return block

    def _connect(self, preds: Iterable[int], succ: int) -> None:
        for pred in preds:
            self.blocks[pred].link(succ)

    def _stmt_block(
        self, kind: str, node: ast.AST, preds: Sequence[int]
    ) -> Block:
        block = self._new(kind, node)
        self._connect(preds, block.bid)
        if self._handlers:
            for handler in self._handlers[-1]:
                block.link(handler)
        return block

    def _raise_targets(self) -> List[int]:
        return self._handlers[-1] if self._handlers else [self.raise_exit]

    # -- construction ------------------------------------------------

    def build(self) -> CFG:
        body = getattr(self.fn, "body", [])
        frontier = self._body(body, [self.entry])
        self._connect(frontier, self.exit)
        return CFG(self.fn, self.blocks, self.entry, self.exit,
                   self.raise_exit)

    def _body(
        self, stmts: Sequence[ast.stmt], preds: Sequence[int]
    ) -> List[int]:
        frontier = list(preds)
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._statement(stmt, frontier)
        return frontier

    def _statement(
        self, stmt: ast.stmt, preds: Sequence[int]
    ) -> List[int]:
        if isinstance(stmt, ast.Return):
            block = self._stmt_block("stmt", stmt, preds)
            block.link(self.exit)
            return []
        if isinstance(stmt, ast.Raise):
            block = self._stmt_block("stmt", stmt, preds)
            for target in self._raise_targets():
                block.link(target)
            return []
        if isinstance(stmt, ast.Break):
            block = self._stmt_block("stmt", stmt, preds)
            if self._loops:
                self._loops[-1].breaks.append(block.bid)
            return []
        if isinstance(stmt, ast.Continue):
            block = self._stmt_block("stmt", stmt, preds)
            if self._loops:
                block.link(self._loops[-1].header)
            return []
        if isinstance(stmt, ast.If):
            test = self._stmt_block("test", stmt, preds)
            then_out = self._body(stmt.body, [test.bid])
            if stmt.orelse:
                else_out = self._body(stmt.orelse, [test.bid])
            else:
                else_out = [test.bid]
            return then_out + else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            kind = "test" if isinstance(stmt, ast.While) else "for"
            header = self._stmt_block(kind, stmt, preds)
            loop = _Loop(header.bid)
            self._loops.append(loop)
            body_out = self._body(stmt.body, [header.bid])
            self._connect(body_out, header.bid)
            self._loops.pop()
            if stmt.orelse:
                out = self._body(stmt.orelse, [header.bid])
            else:
                out = [header.bid]
            return out + loop.breaks
        if isinstance(stmt, ast.Try):
            handler_blocks = [
                self._stmt_block("handler", handler, [])
                for handler in stmt.handlers
            ]
            self._handlers.append([b.bid for b in handler_blocks])
            body_out = self._body(stmt.body, preds)
            self._handlers.pop()
            if not handler_blocks:
                # try/finally with no except: body may still raise past it.
                pass
            if stmt.orelse:
                body_out = self._body(stmt.orelse, body_out)
            handler_out: List[int] = []
            for block, handler in zip(handler_blocks, stmt.handlers):
                handler_out.extend(self._body(handler.body, [block.bid]))
            merged = body_out + handler_out
            if stmt.finalbody:
                return self._body(stmt.finalbody, merged)
            return merged
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            block = self._stmt_block("with", stmt, preds)
            return self._body(stmt.body, [block.bid])
        match_cls = getattr(ast, "Match", None)
        if match_cls is not None and isinstance(stmt, match_cls):
            subject = self._stmt_block("test", stmt, preds)
            out: List[int] = [subject.bid]
            for case in stmt.cases:
                out.extend(self._body(case.body, [subject.bid]))
            return out
        # Plain statement (including nested def/class, treated opaquely).
        block = self._stmt_block("stmt", stmt, preds)
        return [block.bid]


def build_cfg(fn: ast.AST) -> CFG:
    """Build the statement-level CFG of one function definition."""
    return _CFGBuilder(fn).build()


def iter_functions(tree: ast.AST) -> Iterable[ast.AST]:
    """Every ``def``/``async def`` in ``tree``, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ------------------------------------------------------- dataflow engine


def join_states(states: Sequence[State]) -> State:
    """May-join: union of pending tokens, union of holder sets."""
    merged: Dict[TokenSite, FrozenSet[str]] = {}
    for state in states:
        for site, holders in state.items():
            prev = merged.get(site)
            merged[site] = holders if prev is None else prev | holders
    return merged


def run_forward(
    cfg: CFG,
    transfer: Callable[[Block, State], State],
) -> Dict[int, State]:
    """Worklist fixpoint; returns the state at *entry* of every block."""
    in_states: Dict[int, State] = {cfg.entry: {}}
    worklist: List[int] = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        block = cfg.block(bid)
        out = transfer(block, in_states.get(bid, {}))
        for succ in block.succs:
            old = in_states.get(succ)
            new = out if old is None else join_states([old, out])
            if new != old:
                in_states[succ] = new
                worklist.append(succ)
    return in_states


# ----------------------------------------------------------- taint spec


@dataclass
class TaintToken:
    """Metadata of one taint source occurrence."""

    site: TokenSite
    desc: str
    first_holder: Optional[str] = None


class TaintSpec:
    """Domain plug-in: which calls are sources, which pass values through.

    Subclasses override :meth:`source`; every use of a tainted value is
    a plain consumption, so an every-path rule like REP101 only needs
    sources.
    """

    def source(self, call: ast.Call) -> Optional[str]:
        """Return a description when ``call`` mints a taint token."""
        raise NotImplementedError

    def passthrough_params(
        self, call: ast.Call
    ) -> Optional[FrozenSet[int]]:
        """Caller-side positional indices that pass through ``call``.

        When a callee summary proves an argument flows unmodified to
        the return value, the engine treats ``y = f(x)`` like the alias
        ``y = x`` for that argument: the token survives the call with
        the assignment targets added as holders, instead of being
        consumed by it.  Return ``None`` (or an empty set) for ordinary
        consuming calls.
        """
        return None


_DISCARD_PREFIX = "_"


def _is_discard_name(name: str) -> bool:
    return name.startswith(_DISCARD_PREFIX)


class TaintAnalysis:
    """Run one :class:`TaintSpec` over one function CFG.

    A worklist fixpoint stabilises the per-block entry states;
    ``pending_at_exit`` then holds the tokens that reach the *normal*
    exit unconsumed on at least one path (exception exits are
    deliberately ignored).
    """

    def __init__(self, cfg: CFG, spec: TaintSpec) -> None:
        self.cfg = cfg
        self.spec = spec
        self.tokens: Dict[TokenSite, TaintToken] = {}

    # -- public API --------------------------------------------------

    def run(self) -> "TaintAnalysis":
        in_states = run_forward(self.cfg, self._transfer)
        exit_state = in_states.get(self.cfg.exit, {})
        self.pending_at_exit: List[TaintToken] = [
            self.tokens[site] for site in sorted(exit_state)
            if site in self.tokens
        ]
        return self

    # -- transfer function -------------------------------------------

    def _transfer(self, block: Block, state: State) -> State:
        node = block.node
        if node is None:
            return state
        state = dict(state)
        if block.kind == "test":
            test = getattr(node, "test", None) or getattr(node, "subject", None)
            if test is not None:
                self._consume(state, test)
            return state
        if block.kind == "for":
            assert isinstance(node, (ast.For, ast.AsyncFor))
            self._consume(state, node.iter)
            self._kill_target(state, node.target)
            return state
        if block.kind == "with":
            assert isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items:
                self._consume(state, item.context_expr)
                if item.optional_vars is not None:
                    self._kill_target(state, item.optional_vars)
            return state
        if block.kind == "handler":
            assert isinstance(node, ast.ExceptHandler)
            if node.name:
                self._kill_name(state, node.name)
            return state
        return self._transfer_stmt(node, state)

    def _transfer_stmt(self, stmt: ast.AST, state: State) -> State:
        if isinstance(stmt, ast.Assign):
            self._assign(state, stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(state, [stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            # Read-modify-write: accumulating *into* a name is a use of
            # both sides (``total += latency`` is the canonical sink).
            target = stmt.target
            self._consume(state, stmt.value)
            if isinstance(target, ast.Name):
                self._consume_name(state, target.id, target)
            else:
                self._consume(state, target)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Call):
                desc = self.spec.source(value)
                if desc is not None:
                    self._consume_children(state, value)
                    if not self._skip_bare_source(value):
                        self._mint(state, value, desc, holder=None)
                    return state
            self._consume(state, value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._consume(state, stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                self._consume(state, child)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda, ast.ClassDef)):
            # A nested scope may run later and read captured locals:
            # treat every free-name load as a (conservative) use.
            self._consume(state, stmt)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass,
                               ast.Global, ast.Nonlocal)):
            pass
        else:
            self._consume(state, stmt)
        return state

    # -- assignment --------------------------------------------------

    def _assign(
        self, state: State, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        name_targets = [t.id for t in targets if isinstance(t, ast.Name)]
        other_targets = [t for t in targets if not isinstance(t, ast.Name)]
        for target in other_targets:
            # Stored into an attribute/subscript/tuple: the value escapes
            # the local frame — consume uses inside the target expression
            # and kill any plain names nested in tuple targets.
            self._kill_target(state, target)

        if isinstance(value, ast.Name) and not other_targets:
            # Pure alias: the token flows to the new name(s).
            sites = self._sites_held_by(state, value.id)
            if any(_is_discard_name(n) for n in name_targets):
                # ``_ = latency`` — explicit discard consumes the value.
                for site in sites:
                    state.pop(site, None)
                sites = []
            for name in name_targets:
                self._kill_name(state, name)
            for site in sites:
                holders = state.get(site)
                if holders is not None:
                    kept = [n for n in name_targets
                            if not _is_discard_name(n)]
                    state[site] = holders | frozenset(kept)
            return

        if isinstance(value, ast.Call):
            desc = self.spec.source(value)
            if desc is not None:
                self._consume_children(state, value)
                for name in name_targets:
                    self._kill_name(state, name)
                holder = next(
                    (n for n in name_targets if not _is_discard_name(n)),
                    None,
                )
                if holder is not None:
                    site = self._mint(state, value, desc, holder)
                    state[site] = frozenset(
                        n for n in name_targets if not _is_discard_name(n)
                    )
                # Otherwise every target was a discard (``_ = ...``) or
                # an escaping store (``self.x = ...``): consumed.
                return
        passed = self._passed_through(state, value)
        self._consume(state, value)
        for name in name_targets:
            self._kill_name(state, name)
        # A source call nested inside the value expression taints the
        # target too (``elapsed = time.perf_counter() - start``).
        holders = frozenset(
            n for n in name_targets if not _is_discard_name(n)
        )
        if passed and holders:
            # ``y = scaled(lat)`` with a passthrough summary for the
            # callee: the token survives the call, held by both the
            # original argument name and the new target(s).  (When every
            # target is a discard the consume above stands — ``_ = ...``
            # is an explicit drop.)
            for site, prior in passed.items():
                state[site] = prior | holders
        if holders:
            for child in ast.walk(value):
                if not isinstance(child, ast.Call):
                    continue
                desc = self.spec.source(child)
                if desc is None:
                    continue
                site = self._mint(state, child, desc, min(holders))
                state[site] = holders

    def _passed_through(
        self, state: State, value: ast.expr
    ) -> Dict[TokenSite, FrozenSet[str]]:
        """Token sites that survive ``value`` via callee passthrough."""
        if not isinstance(value, ast.Call):
            return {}
        through = self.spec.passthrough_params(value)
        if not through:
            return {}
        passed: Dict[TokenSite, FrozenSet[str]] = {}
        for pos, arg in enumerate(value.args):
            if pos not in through or not isinstance(arg, ast.Name):
                continue
            for site in self._sites_held_by(state, arg.id):
                passed[site] = state[site]
        return passed

    # -- consumption -------------------------------------------------

    def _consume(self, state: State, expr: ast.AST) -> None:
        """Every Name load in ``expr`` consumes the tokens it holds."""
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self._consume_name(state, sub.id, sub)

    def _consume_children(self, state: State, call: ast.Call) -> None:
        """Consume uses inside a source call's arguments."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._consume(state, arg)

    def _consume_name(
        self, state: State, name: str, node: ast.AST
    ) -> None:
        for site in self._sites_held_by(state, name):
            state.pop(site, None)

    # -- state helpers -----------------------------------------------

    def _sites_held_by(self, state: State, name: str) -> List[TokenSite]:
        return [site for site, holders in state.items() if name in holders]

    def _kill_name(self, state: State, name: str) -> None:
        for site, holders in list(state.items()):
            if name in holders:
                state[site] = holders - {name}

    def _kill_target(self, state: State, target: ast.AST) -> None:
        """Rebinding kills Store names; Load names inside (subscript
        indices, attribute bases) are ordinary reads and consume."""
        for sub in ast.walk(target):
            if not isinstance(sub, ast.Name):
                continue
            if isinstance(sub.ctx, ast.Store):
                self._kill_name(state, sub.id)
            else:
                self._consume_name(state, sub.id, sub)

    def _mint(
        self,
        state: State,
        call: ast.Call,
        desc: str,
        holder: Optional[str],
    ) -> TokenSite:
        site = (call.lineno, call.col_offset)
        token = self.tokens.get(site)
        if token is None:
            token = TaintToken(site, desc, holder)
            self.tokens[site] = token
        state[site] = frozenset([holder] if holder else [])
        return site

    def _skip_bare_source(self, call: ast.Call) -> bool:
        """Spec hook: suppress token minting for a bare-Expr source."""
        skip = getattr(self.spec, "skip_bare_expr_source", None)
        if skip is None:
            return False
        return bool(skip(call))


def analyze_function(fn: ast.AST, spec: TaintSpec) -> TaintAnalysis:
    """CFG + fixpoint + reporting sweep for one function."""
    return TaintAnalysis(build_cfg(fn), spec).run()
