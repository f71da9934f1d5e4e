"""Module-level symbol tables and a cross-module call graph.

The flow rule REP101 needs to see *through* module boundaries: a
latency helper defined in ``repro.sim`` and called from an attack.  This module
builds, from nothing but the parsed sources handed to one lint run:

* a :class:`ModuleTable` per file — top-level functions, class methods
  (``Class.method`` qualnames, with ``Class`` itself resolving to its
  ``__init__``) and import aliases;
* a :class:`LintProject` — the tables keyed by dotted module name and a
  dotted-name resolver for call expressions (``helper(...)``,
  ``mod.helper(...)``, ``pkg.mod.Class(...)``, ``self.method(...)``)
  that honours function-local imports (the repository's
  cycle-avoidance idiom).

Resolution is deliberately conservative: a call that cannot be resolved
statically (a method on an arbitrary object, a callable passed as a
value) simply contributes no edge.  REP101 treats unresolved calls as
opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.lint.diagnostics import LintModule
from repro.lint.rules import dotted_name


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a file path (``src/repro/x.py`` -> ``repro.x``).

    A leading ``src`` component is dropped so the names line up with the
    import statements in the tree; anything else (``examples/foo.py``)
    keeps its path-derived name, which only has to be *consistent*.
    """
    parts = list(PurePosixPath(rel_path.replace("\\", "/")).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    while parts and parts[0] in ("src", ".", ".."):
        parts.pop(0)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One statically known function or method."""

    modname: str
    qualname: str  #: ``helper`` or ``Class.method``
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    module: LintModule

    @property
    def fq(self) -> str:
        return f"{self.modname}.{self.qualname}"

    @property
    def class_name(self) -> Optional[str]:
        if "." in self.qualname:
            return self.qualname.split(".", 1)[0]
        return None


@dataclass
class ModuleTable:
    """Symbol table of one module."""

    modname: str
    module: LintModule
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: local alias -> fully qualified dotted target.
    imports: Dict[str, str] = field(default_factory=dict)
    #: class name -> attribute -> declared type (a dotted annotation
    #: string), harvested from annotated ``__init__`` parameters stored
    #: on ``self`` — lets ``self.store.append(...)`` resolve — and from
    #: constructor assignments (``self.outer = DynamicFeistelMapper(...)``)
    #: and list comprehensions of constructors (``self.regions =
    #: [Region(...) for ...]`` records the *element* type).
    attr_types: Dict[str, Dict[str, str]] = field(default_factory=dict)


def _collect_imports(
    stmts: Iterable[ast.stmt], into: Dict[str, str]
) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    into[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; dotted call names are
                    # resolved against full module names directly.
                    into[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                continue  # repo uses absolute imports; skip relative ones
            base = stmt.module or ""
            for alias in stmt.names:
                bound = alias.asname or alias.name
                into[bound] = f"{base}.{alias.name}" if base else alias.name


def local_imports(fn: ast.AST) -> Dict[str, str]:
    """Import aliases established *inside* one function body."""
    table: Dict[str, str] = {}
    stmts = [n for n in ast.walk(fn)
             if isinstance(n, (ast.Import, ast.ImportFrom))]
    _collect_imports(stmts, table)
    return table


def _annotation_dotted(node: ast.expr) -> Optional[str]:
    """Dotted class name of an annotation (``Optional[X]`` unwraps to X)."""
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_dotted(node.slice)
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        if all(p.isidentifier() for p in text.split(".")):
            return text
        return None
    return dotted_name(node)


def _ctor_dotted(value: ast.expr) -> Optional[str]:
    """Dotted class name when ``value`` is a constructor call.

    ``Region(...)`` and ``[Region(...) for r in ...]`` both resolve
    to ``Region`` (for the latter, the element type); anything whose
    callee does not look like a class (capitalised leaf) returns None.
    """
    if isinstance(value, ast.ListComp):
        value = value.elt
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None
    leaf = dotted.split(".")[-1]
    if leaf[:1].isupper():
        return dotted
    return None


def _harvest_attr_types(cls: ast.ClassDef, into: Dict[str, str]) -> None:
    """``self.x = param`` bindings in ``__init__`` whose param is annotated."""
    init = next(
        (item for item in cls.body
         if isinstance(item, ast.FunctionDef) and item.name == "__init__"),
        None,
    )
    if init is None:
        return
    param_types: Dict[str, str] = {}
    for arg in init.args.posonlyargs + init.args.args + init.args.kwonlyargs:
        if arg.annotation is not None:
            ann = _annotation_dotted(arg.annotation)
            if ann is not None:
                param_types[arg.arg] = ann
    for node in ast.walk(init):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if node.annotation is not None:
                ann = _annotation_dotted(node.annotation)
                if (ann is not None and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    into.setdefault(target.attr, ann)
                continue
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Name)
                and value.id in param_types):
            into.setdefault(target.attr, param_types[value.id])
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and value is not None):
            ctor = _ctor_dotted(value)
            if ctor is not None:
                into.setdefault(target.attr, ctor)


def _scan_body(
    table: ModuleTable, stmts: Sequence[ast.stmt], depth: int = 0
) -> None:
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.functions[stmt.name] = FunctionInfo(
                table.modname, stmt.name, stmt, table.module
            )
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{stmt.name}.{item.name}"
                    table.functions[qual] = FunctionInfo(
                        table.modname, qual, item, table.module
                    )
            attrs = table.attr_types.setdefault(stmt.name, {})
            _harvest_attr_types(stmt, attrs)
        elif isinstance(stmt, ast.Try) and depth < 2:
            # Definitions behind module-level feature probes
            # (``try: ... except ImportError: ...``) are still functions.
            for sub in (stmt.body, stmt.orelse, stmt.finalbody):
                _scan_body(table, sub, depth + 1)
            for handler in stmt.handlers:
                _scan_body(table, handler.body, depth + 1)
        elif isinstance(stmt, ast.If) and depth < 2:
            _scan_body(table, stmt.body, depth + 1)
            _scan_body(table, stmt.orelse, depth + 1)


def build_table(module: LintModule) -> ModuleTable:
    """Build the symbol table of one parsed module."""
    table = ModuleTable(module_name_for(module.rel_path), module)
    _collect_imports(
        (s for s in module.tree.body
         if isinstance(s, (ast.Import, ast.ImportFrom))),
        table.imports,
    )
    _scan_body(table, module.tree.body)
    return table


def expand_dotted(
    table: ModuleTable,
    dotted: str,
    extra: Optional[Dict[str, str]] = None,
) -> str:
    """Expand the leading alias of a dotted name through imports.

    ``np.random.default_rng`` becomes ``numpy.random.default_rng`` when
    the module holds ``import numpy as np``; a name with no matching
    alias comes back unchanged.  This is the one shared notion of "what
    fully-qualified thing does this call name", used by every rule that
    must classify calls whose targets are *not* in the linted tree.
    """
    head, _, rest = dotted.partition(".")
    target = None
    if extra:
        target = extra.get(head)
    if target is None:
        target = table.imports.get(head)
    if target is None or target == head:
        return dotted
    return f"{target}.{rest}" if rest else target


class LintProject:
    """All modules of one lint run, cross-referenced."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules = list(modules)
        self.tables: Dict[str, ModuleTable] = {}
        self.by_path: Dict[str, ModuleTable] = {}
        for module in self.modules:
            table = build_table(module)
            self.tables[table.modname] = table
            self.by_path[module.rel_path] = table
        #: Memoisation slot for :class:`repro.lint.summaries.SummaryTable`
        #: (typed loosely to avoid a circular import).
        self.summary_cache: Optional[object] = None

    # -- lookup ------------------------------------------------------

    def function(self, fq: str, _depth: int = 0) -> Optional[FunctionInfo]:
        """Resolve ``pkg.mod.helper`` / ``pkg.mod.Class.method`` /
        ``pkg.mod.Class`` (the latter to its ``__init__``).

        Re-exports are chased: when a package ``__init__`` merely
        imports the symbol, resolution follows the import (bounded
        depth, cycles cut off).
        """
        if _depth > 5:
            return None
        parts = fq.split(".")
        for split in range(len(parts) - 1, 0, -1):
            modname = ".".join(parts[:split])
            table = self.tables.get(modname)
            if table is None:
                continue
            rest = parts[split:]
            qual = ".".join(rest)
            info = table.functions.get(qual)
            if info is not None:
                return info
            ctor = table.functions.get(f"{qual}.__init__")
            if ctor is not None:
                return ctor
            target = table.imports.get(rest[0])
            if target is not None and target != fq:
                tail = parts[split + 1:]
                return self.function(".".join([target] + tail), _depth + 1)
        return None

    def resolve_call(
        self,
        table: ModuleTable,
        call: ast.Call,
        extra_imports: Optional[Dict[str, str]] = None,
        self_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call expression to a known function, if possible."""
        return self.resolve_name(
            table, call.func, extra_imports, self_class
        )

    def resolve_name(
        self,
        table: ModuleTable,
        func: ast.expr,
        extra_imports: Optional[Dict[str, str]] = None,
        self_class: Optional[str] = None,
    ) -> Optional[FunctionInfo]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if (self_class is not None and len(parts) == 2
                and parts[0] in ("self", "cls")):
            info = table.functions.get(f"{self_class}.{parts[1]}")
            if info is not None:
                return info
        if (self_class is not None and len(parts) == 3
                and parts[0] in ("self", "cls")):
            # ``self.store.append(...)``: follow the attribute's declared
            # type (harvested from the annotated __init__ parameter).
            ann = table.attr_types.get(self_class, {}).get(parts[1])
            if ann is not None:
                expanded = expand_dotted(table, ann, extra_imports)
                info = self.function(f"{expanded}.{parts[2]}")
                if info is not None:
                    return info
        aliases = dict(table.imports)
        if extra_imports:
            aliases.update(extra_imports)
        head, rest = parts[0], parts[1:]
        if not rest:
            # Bare name: local function first, then an imported symbol.
            info = table.functions.get(head)
            if info is not None:
                return info
            ctor = table.functions.get(f"{head}.__init__")
            if ctor is not None:
                return ctor
            target = aliases.get(head)
            if target is not None and target != head:
                return self.function(target)
            return None
        target = aliases.get(head)
        if target is not None:
            return self.function(".".join([target] + rest))
        # Fully dotted module path used directly (``import a.b.c``).
        return self.function(dotted)

    # -- traversal ---------------------------------------------------

    def iter_calls(
        self, info: FunctionInfo
    ) -> Iterator[Tuple[ast.Call, Optional[FunctionInfo]]]:
        """Every call inside ``info``, with its resolution (or None)."""
        table = self.by_path[info.module.rel_path]
        extra = local_imports(info.node)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                yield node, self.resolve_call(
                    table, node, extra, info.class_name
                )
