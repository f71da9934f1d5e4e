"""Engine tests: CFG construction and the forward taint analysis."""

import ast

import pytest

from repro.lint.flow import (
    TaintSpec,
    analyze_function,
    build_cfg,
    iter_functions,
)


def _first_function(source):
    tree = ast.parse(source)
    return next(iter(iter_functions(tree)))


def _cfg(source):
    return build_cfg(_first_function(source))


class TestCFG:
    def test_straight_line_has_one_path(self):
        cfg = _cfg("def f():\n    a = 1\n    b = 2\n    return a + b\n")
        assert cfg.paths_to_exit() == 1

    def test_if_else_has_two_paths(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        assert cfg.paths_to_exit() == 2

    def test_if_without_else_has_two_paths(self):
        cfg = _cfg(
            "def f(c):\n"
            "    x = 0\n"
            "    if c:\n"
            "        x = 1\n"
            "    return x\n"
        )
        assert cfg.paths_to_exit() == 2

    def test_early_return_has_two_paths(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        return 1\n"
            "    return 2\n"
        )
        assert cfg.paths_to_exit() == 2

    def test_while_loop_has_back_edge(self):
        cfg = _cfg(
            "def f(n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "    return n\n"
        )
        test_blocks = [b for b in cfg.blocks.values() if b.kind == "test"]
        assert len(test_blocks) == 1
        body = [b for b in cfg.blocks.values()
                if b.kind == "stmt" and isinstance(b.node, ast.AugAssign)]
        assert body and test_blocks[0].bid in body[0].succs

    def test_for_break_skips_orelse(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            break\n"
            "    else:\n"
            "        return -1\n"
            "    return 1\n"
        )
        # break path and else path both reach the exit.
        assert cfg.paths_to_exit() >= 2

    def test_raise_goes_to_raise_exit_not_exit(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        raise ValueError(c)\n"
            "    return c\n"
        )
        raisers = [b for b in cfg.blocks.values()
                   if isinstance(b.node, ast.Raise)]
        assert raisers and raisers[0].succs == [cfg.raise_exit]

    def test_try_body_has_edge_into_handler(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        recover()\n"
            "    return 0\n"
        )
        handlers = [b for b in cfg.blocks.values() if b.kind == "handler"]
        assert len(handlers) == 1
        risky = [b for b in cfg.blocks.values()
                 if b.kind == "stmt" and isinstance(b.node, ast.Expr)
                 and isinstance(b.node.value, ast.Call)
                 and b.node.value.func.id == "risky"]
        assert risky and handlers[0].bid in risky[0].succs

    def test_unreachable_code_after_return_is_cut(self):
        cfg = _cfg(
            "def f():\n"
            "    return 1\n"
            "    x = 2\n"
        )
        assert cfg.paths_to_exit() == 1


class _MakeSpec(TaintSpec):
    """Test spec: ``make()`` mints a token; no sinks."""

    def source(self, call):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "make":
            return "make()"
        return None


def _analyze(source):
    return analyze_function(_first_function(source), _MakeSpec())


class TestTaintEveryPath:
    def test_consumed_on_single_path_is_clean(self):
        analysis = _analyze("def f():\n    x = make()\n    use(x)\n")
        assert analysis.pending_at_exit == []

    def test_dropped_value_is_pending(self):
        analysis = _analyze("def f():\n    x = make()\n    return 0\n")
        assert [t.first_holder for t in analysis.pending_at_exit] == ["x"]

    def test_dropped_on_one_branch_is_pending(self):
        analysis = _analyze(
            "def f(c):\n"
            "    x = make()\n"
            "    if c:\n"
            "        use(x)\n"
            "    return 0\n"
        )
        assert len(analysis.pending_at_exit) == 1

    def test_consumed_on_both_branches_is_clean(self):
        analysis = _analyze(
            "def f(c):\n"
            "    x = make()\n"
            "    if c:\n"
            "        use(x)\n"
            "    else:\n"
            "        total = x\n"
            "        use(total)\n"
            "    return 0\n"
        )
        assert analysis.pending_at_exit == []

    def test_alias_transfer_tracks_token(self):
        analysis = _analyze(
            "def f():\n"
            "    x = make()\n"
            "    y = x\n"
            "    use(y)\n"
        )
        assert analysis.pending_at_exit == []

    def test_explicit_discard_consumes(self):
        analysis = _analyze("def f():\n    x = make()\n    _ = x\n")
        assert analysis.pending_at_exit == []

    def test_rebinding_without_use_stays_pending(self):
        analysis = _analyze("def f():\n    x = make()\n    x = 1\n    return x\n")
        assert len(analysis.pending_at_exit) == 1

    def test_augassign_accumulation_consumes(self):
        analysis = _analyze(
            "def f(n):\n"
            "    total = 0\n"
            "    x = make()\n"
            "    total += x\n"
            "    return total\n"
        )
        assert analysis.pending_at_exit == []

    def test_return_consumes(self):
        analysis = _analyze("def f():\n    x = make()\n    return x\n")
        assert analysis.pending_at_exit == []

    def test_escaping_store_consumes(self):
        analysis = _analyze(
            "def f(self):\n"
            "    x = make()\n"
            "    self.latency = x\n"
        )
        assert analysis.pending_at_exit == []

    def test_loop_reassignment_same_site_not_flagged(self):
        # The token site is the source call's position: re-minting on the
        # next iteration is the *same* token, so consuming the final
        # value suffices — hammer loops are not N-1 dropped latencies.
        analysis = _analyze(
            "def f(n):\n"
            "    total = 0\n"
            "    for i in range(n):\n"
            "        x = make()\n"
            "        total += x\n"
            "    return total\n"
        )
        assert analysis.pending_at_exit == []

    def test_loop_continue_path_drop_is_pending(self):
        analysis = _analyze(
            "def f(xs):\n"
            "    total = 0\n"
            "    for i in xs:\n"
            "        x = make()\n"
            "        if i:\n"
            "            continue\n"
            "        total += x\n"
            "    return total\n"
        )
        assert len(analysis.pending_at_exit) == 1

    def test_raise_path_abandonment_is_ignored(self):
        analysis = _analyze(
            "def f(c):\n"
            "    x = make()\n"
            "    if c:\n"
            "        raise ValueError(c)\n"
            "    use(x)\n"
        )
        assert analysis.pending_at_exit == []

    def test_handler_path_drop_is_pending(self):
        analysis = _analyze(
            "def f():\n"
            "    x = make()\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        return None\n"
            "    return x\n"
        )
        assert len(analysis.pending_at_exit) == 1

    def test_handler_consuming_is_clean(self):
        analysis = _analyze(
            "def f():\n"
            "    x = make()\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        use(x)\n"
            "        return None\n"
            "    return x\n"
        )
        assert analysis.pending_at_exit == []

    def test_nested_function_capture_consumes(self):
        analysis = _analyze(
            "def f():\n"
            "    x = make()\n"
            "    def g():\n"
            "        return x\n"
            "    return g\n"
        )
        assert analysis.pending_at_exit == []


class TestIterFunctions:
    def test_finds_methods_and_nested(self):
        tree = ast.parse(
            "def top():\n"
            "    pass\n"
            "class C:\n"
            "    def method(self):\n"
            "        pass\n"
            "async def coro():\n"
            "    pass\n"
        )
        names = sorted(fn.name for fn in iter_functions(tree))
        assert names == ["coro", "method", "top"]
