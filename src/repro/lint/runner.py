"""reprolint driver: file discovery, rule execution, reporting.

Run as ``python -m repro.lint [paths...]`` or ``python -m repro lint``
(which hands its arguments to :func:`main` unchanged).
Exit status: 0 clean, 1 violations found, 2 usage error.

One pass checks each file on its own against the per-file rules
REP001–REP007; the flow rule REP101 then sees the whole run at once,
through a cross-module call graph and interprocedural function
summaries.  ``--check-suppressions`` additionally reports stale
``# reprolint: disable=...`` pragmas that no longer shield anything, as
REP100 diagnostics.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.lint import rules as _rules  # noqa: F401  (populates REGISTRY)
from repro.lint import flowrules as _flowrules  # noqa: F401  (REP101)
from repro.lint.callgraph import LintProject
from repro.lint.diagnostics import (
    REGISTRY,
    Diagnostic,
    FlowRule,
    LintModule,
    Rule,
    Severity,
    all_rules,
)
from repro.lint.sarif import render_sarif
from repro.lint.suppress import SuppressionMap, parse_suppressions

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "build",
                        "dist", ".pytest_cache"})

#: Diagnostic code for a stale suppression (``--check-suppressions``).
UNUSED_SUPPRESSION_CODE = "REP100"


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        else:
            raise FileNotFoundError(raw)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    #: rel_path -> that file's pragma map (with usage marks).
    suppressions: Dict[str, SuppressionMap] = field(default_factory=dict)


def lint_sources(
    sources: Dict[str, str],
    selected: Optional[Iterable[Rule]] = None,
) -> LintResult:
    """Lint a mapping of ``rel_path -> source``; the core engine.

    Multi-file input is what gives the flow rule its cross-module
    view; tests hand in small dict fixtures, :func:`lint_paths` hands
    in the real tree.  The per-file rules check each file on its own,
    the flow rules the whole set at once; a diagnostic a pragma of its
    file covers is dropped (and the pragma marked used).
    """
    chosen = list(all_rules() if selected is None else selected)
    per_file = [r for r in chosen if not isinstance(r, FlowRule)]
    flow_rules = [r for r in chosen if isinstance(r, FlowRule)]
    result = LintResult(files_checked=len(sources))
    modules: List[LintModule] = []
    for rel_path, source in sources.items():
        smap = parse_suppressions(source)
        result.suppressions[rel_path] = smap
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            result.diagnostics.append(
                Diagnostic(
                    path=rel_path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    code="REP000",
                    message=f"syntax error: {exc.msg}",
                    severity=Severity.ERROR,
                )
            )
            continue
        module = LintModule(rel_path=rel_path, source=source, tree=tree)
        modules.append(module)
        result.diagnostics.extend(
            d for rule in per_file for d in rule.check(module)
            if not smap.is_suppressed(d.code, d.line)
        )
    if flow_rules and modules:
        project = LintProject(modules)
        result.diagnostics.extend(
            d for rule in flow_rules for d in rule.check_project(project)
            if not result.suppressions[d.path].is_suppressed(d.code, d.line)
        )
    result.diagnostics.sort()
    return result


def lint_source(
    source: str,
    rel_path: str = "<string>",
    selected: Optional[Iterable[Rule]] = None,
) -> List[Diagnostic]:
    """Lint one source string."""
    return lint_sources({rel_path: source}, selected=selected).diagnostics


def lint_paths(
    paths: Sequence[str],
    selected: Optional[Iterable[Rule]] = None,
) -> List[Diagnostic]:
    """Lint every python file reachable from ``paths``."""
    return lint_tree(paths, selected).diagnostics


def lint_tree(
    paths: Sequence[str],
    selected: Optional[Iterable[Rule]] = None,
) -> LintResult:
    """Like :func:`lint_paths`, returning the full :class:`LintResult`."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        sources[path.as_posix()] = path.read_text(encoding="utf-8")
    return lint_sources(sources, selected)


def unused_suppression_diagnostics(
    result: LintResult, ran_codes: Iterable[str]
) -> List[Diagnostic]:
    """REP100 diagnostics for pragmas that shielded nothing.

    A pragma code only counts as stale when the rule it names actually
    ran (or names no known rule at all — a typo is always stale).
    """
    ran = set(ran_codes)
    stale: List[Diagnostic] = []
    for rel_path in sorted(result.suppressions):
        smap = result.suppressions[rel_path]
        for entry, code in smap.iter_stale():
            if code != "all" and code in REGISTRY and code not in ran:
                continue
            scope = ("file-wide " if entry.target is None else "")
            stale.append(
                Diagnostic(
                    path=rel_path,
                    line=entry.pragma_line,
                    col=1,
                    code=UNUSED_SUPPRESSION_CODE,
                    message=(
                        f"{scope}suppression of {code} matches no "
                        "diagnostic; remove the stale pragma (or the "
                        "stale code from its list)"
                    ),
                    severity=Severity.ERROR,
                )
            )
    return stale


def _resolve_rules(
    select: Optional[str], ignore: Optional[str]
) -> List[Rule]:
    def split(csv: str) -> List[str]:
        return [code.strip().upper() for code in csv.split(",") if code.strip()]

    codes = set(REGISTRY)
    if select:
        wanted = split(select)
        unknown = [c for c in wanted if c not in REGISTRY]
        if unknown:
            raise KeyError(", ".join(unknown))
        codes = set(wanted)
    if ignore:
        dropped = split(ignore)
        unknown = [c for c in dropped if c not in REGISTRY]
        if unknown:
            raise KeyError(", ".join(unknown))
        codes -= set(dropped)
    return [REGISTRY[code] for code in sorted(codes)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "reprolint: AST-based simulator-invariant checker "
            "(determinism, latency accounting, hidden state)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--check-suppressions", action="store_true",
        help=(
            "also report stale '# reprolint: disable' pragmas that no "
            "longer suppress anything (REP100)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit",
    )
    return parser


def _print_rule_listing() -> None:
    for rule in all_rules():
        flavor = " [flow]" if isinstance(rule, FlowRule) else ""
        print(f"{rule.code} ({rule.name}) [{rule.severity}]{flavor}")
        print(f"    {rule.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rule_listing()
        return 0
    try:
        selected = _resolve_rules(args.select, args.ignore)
    except KeyError as exc:
        print(f"unknown rule code(s): {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        result = lint_tree(args.paths, selected)
    except FileNotFoundError as exc:
        print(f"no such file or directory: {exc.args[0]}", file=sys.stderr)
        return 2
    diagnostics = result.diagnostics
    if args.check_suppressions:
        diagnostics = sorted(
            diagnostics + unused_suppression_diagnostics(
                result, [r.code for r in selected])
        )
    n_files = result.files_checked
    if args.format == "json":
        print(json.dumps(
            {
                "files_checked": n_files,
                "rules": [r.code for r in selected],
                "diagnostics": [d.to_json() for d in diagnostics],
            },
            indent=2,
        ))
    elif args.format == "sarif":
        print(render_sarif(diagnostics, selected))
    else:
        for diag in diagnostics:
            print(diag.render())
        summary = (
            f"{len(diagnostics)} problem(s) in {n_files} file(s)"
            if diagnostics
            else f"clean: {n_files} file(s), {len(selected)} rule(s)"
        )
        print(summary)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    return 1 if errors else 0
