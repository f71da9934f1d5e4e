"""Core datatypes of the ``reprolint`` static-analysis framework.

A :class:`Rule` inspects one parsed module and yields
:class:`Diagnostic` records; the :data:`REGISTRY` maps rule codes
(``REP001``...) to their singleton rule instances.  Rules register
themselves with the :func:`register` decorator at import time
(:mod:`repro.lint.rules` imports populate the registry).
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Type


class Severity(enum.Enum):
    """How strongly a diagnostic should gate a build."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violation at a file/line/column."""

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: Severity = field(compare=False, default=Severity.ERROR)

    def render(self) -> str:
        """Human-readable one-liner (``path:line:col: CODE message``)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable form for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }


@dataclass
class LintModule:
    """One parsed source file, as handed to every rule.

    ``rel_path`` is the path as given on the command line (kept relative
    so diagnostics are stable across checkouts); ``parts`` caches the
    path components rules use for scoping decisions (e.g. REP005 skips
    ``benchmarks/``, REP006 only fires inside ``wearlevel``/``pcm``/
    ``sim``).
    """

    rel_path: str
    source: str
    tree: ast.Module

    @property
    def parts(self) -> Tuple[str, ...]:
        return Path(self.rel_path).parts

    @property
    def is_rng_module(self) -> bool:
        """True for ``repro/util/rng.py`` — the one sanctioned RNG home."""
        return self.rel_path.replace("\\", "/").endswith("repro/util/rng.py")


class Rule:
    """Base class for all reprolint rules.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`severity` and a
    docstring (shown by ``--list-rules``), and implement :meth:`check`.
    """

    code: str = "REP000"
    name: str = "abstract-rule"
    severity: Severity = Severity.ERROR

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        """Yield every violation of this rule found in ``module``."""
        raise NotImplementedError

    def diagnostic(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node``."""
        return Diagnostic(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            severity=self.severity,
        )

    @property
    def description(self) -> str:
        """First paragraph of the rule docstring, for ``--list-rules``."""
        doc = (self.__doc__ or "").strip()
        return doc.split("\n\n")[0].replace("\n", " ")


class FlowRule(Rule):
    """Base class for flow-sensitive, project-wide rules (REP101).

    Flow rules see the *whole* lint run at once — every parsed module,
    cross-referenced by :class:`repro.lint.callgraph.LintProject` — so
    they can follow values through helper wrappers and module
    boundaries.  The runner calls :meth:`check_project` once per run
    instead of :meth:`check` per module; diagnostics still carry the
    path of the module they fire in, so inline suppressions work
    unchanged.
    """

    def check(self, module: LintModule) -> Iterator[Diagnostic]:
        """Flow rules run project-wide; per-module checking is a no-op."""
        return iter(())

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        """Yield every violation found across ``project`` (a
        :class:`repro.lint.callgraph.LintProject`)."""
        raise NotImplementedError


#: Rule code -> singleton instance; populated by :func:`register`.
REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate ``cls`` and add it to :data:`REGISTRY`."""
    instance = cls()
    if instance.code in REGISTRY:
        raise ValueError(f"duplicate rule code {instance.code}")
    REGISTRY[instance.code] = instance
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [REGISTRY[code] for code in sorted(REGISTRY)]
