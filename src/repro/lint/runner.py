"""reprolint driver: file discovery, rule execution, caching, reporting.

Run as ``python -m repro.lint [paths...]`` or ``python -m repro lint``.
Exit status: 0 clean, 1 violations found, 2 usage error.

Three rule families run per invocation:

* the syntactic rules (REP001–REP007) check each file independently;
* the flow rules (REP101–REP104, on by default, ``--no-flow`` to skip)
  see the whole run at once through a cross-module call graph and
  interprocedural function summaries;
* the array/address rules (REP301–REP306) enforce numpy dtype/
  aliasing discipline and the LA/IA/PA address-domain separation;
  REP305 is syntactic, the rest ride the flow pass.

``--jobs N`` fans the syntactic pass over N worker processes (0 = one
per CPU); the flow pass is whole-project and stays in the parent.
Output is byte-identical for every N — diagnostics are merged per
file and globally sorted, never emitted in completion order.

``--baseline write FILE`` records the current findings; ``--baseline
check FILE`` reports only new findings and fails on stale entries, so
a future rule family can land warn-only and be ratcheted down.

Results are cached under ``build/.lintcache`` (``--no-cache`` bypasses):
per-file for the syntactic family, whole-project for the flow family.
``--check-suppressions`` additionally reports stale
``# reprolint: disable=...`` pragmas that no longer shield anything, as
REP100 diagnostics (this mode disables the cache — usage accounting
needs every rule to actually run).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint import rules as _rules  # noqa: F401  (populates REGISTRY)
from repro.lint import flowrules as _flowrules  # noqa: F401  (REP101–REP104)
from repro.lint import arrayrules as _arrayrules  # noqa: F401  (REP301+)
from repro.lint import domains as _domains  # noqa: F401  (REP304/REP306)
from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.cache import LintCache, project_key, source_sha
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
from repro.lint.parallel import check_files_parallel
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

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]


def _split_rules(
    selected: Iterable[Rule], flow: bool
) -> Tuple[List[Rule], List[FlowRule]]:
    syntactic: List[Rule] = []
    flow_rules: List[FlowRule] = []
    for rule in selected:
        if isinstance(rule, FlowRule):
            if flow:
                flow_rules.append(rule)
        else:
            syntactic.append(rule)
    return syntactic, flow_rules


def _codes_key(rules: Sequence[Rule]) -> str:
    return ",".join(sorted(r.code for r in rules))


def lint_sources(
    sources: Dict[str, str],
    selected: Optional[Iterable[Rule]] = None,
    flow: bool = True,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
) -> LintResult:
    """Lint a mapping of ``rel_path -> source``; the core engine.

    Multi-file input is what gives the flow rules their cross-module
    view; tests hand in small dict fixtures, :func:`lint_paths` hands
    in the real tree.  ``jobs > 1`` fans the per-file syntactic rules
    over worker processes; suppression accounting, caching and the
    final sort stay in the parent, so the output is byte-identical to
    a serial run.
    """
    chosen = list(all_rules() if selected is None else selected)
    syntactic, flow_rules = _split_rules(chosen, flow)
    result = LintResult(files_checked=len(sources))
    file_key = _codes_key(syntactic)

    modules: List[LintModule] = []
    pending: List[LintModule] = []
    shas: Dict[str, str] = {}
    for rel_path, source in sources.items():
        shas[rel_path] = source_sha(source)
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

        cached = (
            cache.get_file(rel_path, shas[rel_path], file_key)
            if cache is not None else None
        )
        if cached is not None:
            result.diagnostics.extend(cached)
            continue
        pending.append(module)

    if pending:
        if jobs != 1 and len(pending) > 1:
            raw = check_files_parallel(
                [(m.rel_path, m.source) for m in pending],
                [rule.code for rule in syntactic],
                jobs,
            )
        else:
            raw = {
                m.rel_path: [d for rule in syntactic
                             for d in rule.check(m)]
                for m in pending
            }
        for module in pending:
            smap = result.suppressions[module.rel_path]
            file_diags = [
                d for d in raw.get(module.rel_path, [])
                if not smap.is_suppressed(d.code, d.line)
            ]
            if cache is not None:
                cache.put_file(
                    module.rel_path, shas[module.rel_path], file_key,
                    file_diags,
                )
            result.diagnostics.extend(file_diags)

    if flow_rules and modules:
        flow_key = project_key(shas)
        flow_codes = _codes_key(flow_rules)
        cached_flow = (
            cache.get_flow(flow_key, flow_codes)
            if cache is not None else None
        )
        if cached_flow is not None:
            result.diagnostics.extend(cached_flow)
        else:
            project = LintProject(modules)
            flow_diags: List[Diagnostic] = []
            for rule in flow_rules:
                for diag in rule.check_project(project):
                    smap = result.suppressions.get(diag.path)
                    if smap is not None and smap.is_suppressed(
                            diag.code, diag.line):
                        continue
                    flow_diags.append(diag)
            if cache is not None:
                cache.put_flow(flow_key, flow_codes, flow_diags)
            result.diagnostics.extend(flow_diags)

    if cache is not None:
        cache.save()
    result.diagnostics.sort()
    return result


def lint_source(
    source: str,
    rel_path: str = "<string>",
    selected: Optional[Iterable[Rule]] = None,
    flow: bool = False,
) -> List[Diagnostic]:
    """Lint one source string (flow rules opt-in for single files)."""
    return lint_sources(
        {rel_path: source}, selected=selected, flow=flow
    ).diagnostics


def lint_paths(
    paths: Sequence[str],
    selected: Optional[Iterable[Rule]] = None,
    flow: bool = True,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
) -> List[Diagnostic]:
    """Lint every python file reachable from ``paths``."""
    return lint_tree(
        paths, selected, flow=flow, cache=cache, jobs=jobs
    ).diagnostics


def lint_tree(
    paths: Sequence[str],
    selected: Optional[Iterable[Rule]] = None,
    flow: bool = True,
    cache: Optional[LintCache] = None,
    jobs: int = 1,
) -> LintResult:
    """Like :func:`lint_paths`, returning the full :class:`LintResult`."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        sources[path.as_posix()] = path.read_text(encoding="utf-8")
    return lint_sources(sources, selected, flow=flow, cache=cache,
                        jobs=jobs)


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
        "--flow", dest="flow", action="store_true", default=True,
        help="run the flow-sensitive rules REP101-REP306 (default)",
    )
    parser.add_argument(
        "--no-flow", dest="flow", action="store_false",
        help="skip the flow-sensitive rules",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes for the per-file syntactic pass "
            "(0 = one per CPU, default 1); the flow pass is "
            "whole-project and stays serial — output is byte-identical "
            "for every N"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the incremental cache under build/.lintcache",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache directory (default: build/.lintcache)",
    )
    parser.add_argument(
        "--baseline", nargs=2, metavar=("MODE", "FILE"),
        help=(
            "baseline support: 'write FILE' records the current "
            "findings as accepted; 'check FILE' reports only findings "
            "not in the baseline, and fails on stale baseline entries"
        ),
    )
    parser.add_argument(
        "--check-suppressions", action="store_true",
        help=(
            "also report stale '# reprolint: disable' pragmas that no "
            "longer suppress anything (REP100; disables the cache)"
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
    baseline_failed = False
    use_cache = not args.no_cache and not args.check_suppressions
    cache = (
        LintCache(Path(args.cache_dir) if args.cache_dir else None)
        if use_cache else None
    )
    try:
        result = lint_tree(args.paths, selected, flow=args.flow,
                           cache=cache, jobs=args.jobs)
    except FileNotFoundError as exc:
        print(f"no such file or directory: {exc.args[0]}", file=sys.stderr)
        return 2
    diagnostics = result.diagnostics
    if args.check_suppressions:
        ran_codes = [r.code for r in selected
                     if args.flow or not isinstance(r, FlowRule)]
        diagnostics = sorted(
            diagnostics + unused_suppression_diagnostics(result, ran_codes)
        )
    n_files = result.files_checked
    if args.baseline is not None:
        mode, baseline_file = args.baseline
        if mode not in ("write", "check"):
            print(f"--baseline mode must be write|check, got '{mode}'",
                  file=sys.stderr)
            return 2
        if mode == "write":
            n_entries = write_baseline(diagnostics, Path(baseline_file))
            print(f"baseline: recorded {len(diagnostics)} finding(s) "
                  f"({n_entries} distinct) in {baseline_file}")
            return 0
        try:
            entries = load_baseline(Path(baseline_file))
        except BaselineError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        diagnostics, stale = apply_baseline(diagnostics, entries)
        baseline_failed = bool(stale)
        for key in stale:
            print(f"stale baseline entry (no longer matches anything): "
                  f"{key}", file=sys.stderr)
        if stale:
            print(f"{len(stale)} stale baseline entr(y/ies) in "
                  f"{baseline_file}; re-run '--baseline write' after "
                  "confirming the fixes", file=sys.stderr)
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
    return 1 if errors or baseline_failed else 0
