"""reprolint — AST-based static analysis for the simulator's invariants.

The reproduction's headline numbers (RTA success rates, lifetime curves,
fault-campaign availability) are only trustworthy when the simulator is
bit-deterministic under a seed and accounts every nanosecond on the
attacker-observable path.  This package enforces those invariants as
lint rules over the codebase (see ``docs/lint.md``):

* REP001–REP007 — per-file syntactic rules (:mod:`repro.lint.rules`);
* REP101 — the flow-sensitive latency-taint rule
  (:mod:`repro.lint.flowrules`), built on a dataflow engine
  (:mod:`repro.lint.flow`), a cross-module call graph
  (:mod:`repro.lint.callgraph`) and interprocedural function summaries
  (:mod:`repro.lint.summaries`) that carry latency taint across call
  boundaries;
* REP100 — the stale-pragma check of ``--check-suppressions``.

>>> from repro.lint import lint_source
>>> lint_source("import numpy as np\\nx = np.random.rand()\\n")[0].code
'REP001'

Run from the command line as ``python -m repro.lint [paths...]`` or
``python -m repro lint``.
"""

from repro.lint.diagnostics import (
    REGISTRY,
    Diagnostic,
    FlowRule,
    LintModule,
    Rule,
    Severity,
    all_rules,
    register,
)
from repro.lint import rules  # noqa: F401  (registers REP001–REP007)
from repro.lint import flowrules  # noqa: F401  (registers REP101)
from repro.lint.callgraph import LintProject
from repro.lint.runner import (
    LintResult,
    lint_paths,
    lint_source,
    lint_sources,
    lint_tree,
    main,
)
from repro.lint.sarif import render_sarif, to_sarif
from repro.lint.summaries import (
    FunctionSummary,
    SummaryTable,
    project_summaries,
)
from repro.lint.suppress import SuppressionMap, parse_suppressions

__all__ = (
    "Diagnostic",
    "FlowRule",
    "FunctionSummary",
    "LintModule",
    "LintProject",
    "LintResult",
    "REGISTRY",
    "Rule",
    "Severity",
    "SummaryTable",
    "SuppressionMap",
    "all_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "lint_tree",
    "main",
    "parse_suppressions",
    "project_summaries",
    "register",
    "render_sarif",
    "to_sarif",
)
