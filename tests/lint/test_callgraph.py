"""Symbol-table / call-graph tests."""

import ast

from repro.lint.callgraph import LintProject, build_table, module_name_for
from repro.lint.diagnostics import LintModule


def _module(rel_path, source):
    return LintModule(rel_path=rel_path, source=source,
                      tree=ast.parse(source))


def _project(sources):
    return LintProject([_module(p, s) for p, s in sources.items()])


class TestModuleNames:
    def test_src_prefix_dropped(self):
        assert module_name_for("src/repro/pcm/array.py") == "repro.pcm.array"

    def test_init_maps_to_package(self):
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"

    def test_absolute_path_truncates_at_repro(self):
        assert (
            module_name_for("/root/repo/src/repro/util/rng.py")
            == "repro.util.rng"
        )

    def test_non_repro_path_keeps_shape(self):
        assert module_name_for("examples/demo.py") == "examples.demo"


class TestSymbolTable:
    SRC = (
        "import numpy as np\n"
        "from repro.util.rng import derive_seed\n"
        "_CACHE = {}\n"
        "LIMIT = 4\n"
        "def helper():\n"
        "    pass\n"
        "class Thing:\n"
        "    def method(self):\n"
        "        return helper()\n"
    )

    def test_functions_and_methods(self):
        table = build_table(_module("src/repro/demo.py", self.SRC))
        assert set(table.functions) == {"helper", "Thing.method"}
        assert table.functions["Thing.method"].class_name == "Thing"
        assert table.functions["helper"].fq == "repro.demo.helper"

    def test_import_aliases(self):
        table = build_table(_module("src/repro/demo.py", self.SRC))
        assert table.imports["np"] == "numpy"
        assert table.imports["derive_seed"] == "repro.util.rng.derive_seed"


class TestResolution:
    def test_cross_module_call(self):
        project = _project({
            "src/repro/a.py": (
                "from repro.b import helper\n"
                "def caller():\n"
                "    return helper()\n"
            ),
            "src/repro/b.py": "def helper():\n    return 1\n",
        })
        table = project.tables["repro.a"]
        call = table.functions["caller"].node.body[0].value
        resolved = project.resolve_call(table, call)
        assert resolved is not None and resolved.fq == "repro.b.helper"

    def test_self_method_call(self):
        project = _project({
            "src/repro/a.py": (
                "class C:\n"
                "    def one(self):\n"
                "        return self.two()\n"
                "    def two(self):\n"
                "        return 2\n"
            ),
        })
        table = project.tables["repro.a"]
        call = table.functions["C.one"].node.body[0].value
        resolved = project.resolve_call(table, call, self_class="C")
        assert resolved is not None and resolved.fq == "repro.a.C.two"

    def test_constructor_resolves_to_init(self):
        project = _project({
            "src/repro/a.py": (
                "from repro.b import Gadget\n"
                "def build():\n"
                "    return Gadget()\n"
            ),
            "src/repro/b.py": (
                "class Gadget:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
            ),
        })
        table = project.tables["repro.a"]
        call = table.functions["build"].node.body[0].value
        resolved = project.resolve_call(table, call)
        assert resolved is not None and resolved.fq == "repro.b.Gadget.__init__"

    def test_reexport_through_package_init(self):
        project = _project({
            "src/repro/pkg/__init__.py": "from repro.pkg.impl import thing\n",
            "src/repro/pkg/impl.py": "def thing():\n    return 0\n",
            "src/repro/user.py": (
                "from repro.pkg import thing\n"
                "def go():\n"
                "    return thing()\n"
            ),
        })
        table = project.tables["repro.user"]
        call = table.functions["go"].node.body[0].value
        resolved = project.resolve_call(table, call)
        assert resolved is not None and resolved.fq == "repro.pkg.impl.thing"

    def test_function_local_import(self):
        project = _project({
            "src/repro/a.py": (
                "def lazy():\n"
                "    from repro.b import helper\n"
                "    return helper()\n"
            ),
            "src/repro/b.py": "def helper():\n    return 1\n",
        })
        table = project.tables["repro.a"]
        info = table.functions["lazy"]
        edges = list(project.iter_calls(info))
        assert any(
            callee is not None and callee.fq == "repro.b.helper"
            for _, callee in edges
        )
