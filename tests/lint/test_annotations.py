"""Annotation-completeness checks for the strictly-typed core modules.

``pyproject.toml`` holds ``repro.pcm.array``, ``repro.pcm.sparing``,
``repro.sim.memory_system``, ``repro.wearlevel.base``, ``repro.cli``,
``repro.campaign`` and ``repro.lint`` to
``disallow_untyped_defs``/``disallow_incomplete_defs`` under mypy.
mypy itself only runs in the CI lint job (it is not a runtime
dependency), so this test enforces the same completeness property with
``ast``: every function in those modules must annotate its return type
and every parameter except ``self``/``cls`` and ``*args``/``**kwargs``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

STRICT_MODULES = [
    "repro/pcm/array.py",
    "repro/pcm/sparing.py",
    "repro/sim/memory_system.py",
    "repro/wearlevel/base.py",
    "repro/lint/__init__.py",
    "repro/lint/__main__.py",
    "repro/lint/diagnostics.py",
    "repro/lint/rules.py",
    "repro/lint/runner.py",
    "repro/lint/summaries.py",
    "repro/lint/suppress.py",
    "repro/cli.py",
    "repro/campaign/__init__.py",
    "repro/campaign/aggregate.py",
    "repro/campaign/progress.py",
    "repro/campaign/runner.py",
    "repro/campaign/spec.py",
    "repro/campaign/store.py",
    "repro/campaign/tasks.py",
    "repro/traffic/__init__.py",
    "repro/traffic/adapter.py",
    "repro/traffic/csvtrace.py",
    "repro/traffic/errors.py",
    "repro/traffic/profiles.py",
    "repro/traffic/rbt.py",
    "repro/traffic/tenants.py",
]


def incomplete_defs(path):
    """Yield ``name:line`` for each def with missing annotations."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = positional[1:] if positional and positional[0].arg in (
            "self", "cls"
        ) else positional
        missing = [a.arg for a in named + args.kwonlyargs if a.annotation is None]
        if node.returns is None:
            missing.append("return")
        if missing:
            yield f"{node.name}:{node.lineno} missing {missing}"


@pytest.mark.parametrize("module", STRICT_MODULES)
def test_strict_module_is_fully_annotated(module):
    problems = list(incomplete_defs(SRC / module))
    assert problems == [], f"{module}: {problems}"


def test_py_typed_marker_ships():
    assert (SRC / "repro" / "py.typed").exists()
