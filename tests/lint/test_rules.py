"""Fixture-snippet tests for every reprolint rule (REP001–REP007).

Each rule gets a positive case (the violation fires, with the right code
and line), a negative case (compliant code stays clean), and an
inline-suppression case (the pragma silences exactly that line).
"""

import textwrap

from repro.lint import lint_source


def run(snippet, rel_path="src/repro/sim/fake.py"):
    """Lint a dedented snippet as if it lived at ``rel_path``."""
    return lint_source(textwrap.dedent(snippet), rel_path)


def codes(snippet, rel_path="src/repro/sim/fake.py"):
    return [d.code for d in run(snippet, rel_path)]


class TestREP001UnseededRandomness:
    def test_global_numpy_rng_flagged(self):
        diags = run("""\
            import numpy as np
            x = np.random.rand(4)
        """)
        # REP305 (nondeterministic-array) fires on the same legacy
        # global-generator call by design.
        assert [d.code for d in diags] == ["REP001", "REP305"]
        assert diags[0].line == 2

    def test_unseeded_default_rng_flagged(self):
        assert codes("""\
            import numpy as np
            gen = np.random.default_rng()
        """) == ["REP001"]

    def test_unseeded_imported_default_rng_flagged(self):
        assert codes("""\
            from numpy.random import default_rng
            gen = default_rng()
        """) == ["REP001"]

    def test_unseeded_as_generator_flagged(self):
        assert codes("""\
            from repro.util.rng import as_generator
            gen = as_generator()
        """) == ["REP001"]

    def test_stdlib_random_import_and_call_flagged(self):
        diags = run("""\
            import random
            x = random.random()
        """)
        assert [d.code for d in diags] == ["REP001", "REP001"]

    def test_seeded_default_rng_ok(self):
        assert codes("""\
            import numpy as np
            gen = np.random.default_rng(7)
            other = np.random.default_rng(seed=11)
        """) == []

    def test_seeded_as_generator_ok(self):
        assert codes("""\
            from repro.util.rng import as_generator
            gen = as_generator(7)
        """) == []

    def test_rng_module_itself_exempt(self):
        assert codes(
            """\
            import numpy as np
            def as_generator(seed=None):
                return np.random.default_rng(seed)
            fallback = np.random.default_rng()
            """,
            rel_path="src/repro/util/rng.py",
        ) == []

    def test_inline_suppression(self):
        assert codes("""\
            import numpy as np
            gen = np.random.default_rng()  # reprolint: disable=REP001 demo
        """) == []


class TestREP002DiscardedLatency:
    def test_bare_write_flagged(self):
        diags = run("""\
            def drive(controller):
                controller.write(0, 1)
        """)
        assert [d.code for d in diags] == ["REP002"]
        assert diags[0].line == 2

    def test_bare_swap_copy_and_remap_flagged(self):
        assert codes("""\
            def drive(array, scheme):
                array.swap(0, 1)
                array.copy(0, 1)
                scheme.remap()
        """) == ["REP002", "REP002", "REP002"]

    def test_assigned_latency_ok(self):
        assert codes("""\
            def drive(controller):
                latency = controller.write(0, 1)
                _ = controller.write(1, 1)
                return latency
        """) == []

    def test_filelike_receiver_ok(self):
        assert codes("""\
            import sys
            def report(f):
                f.write("hello")
                sys.stdout.write("world")
        """) == []

    def test_private_filelike_attribute_ok(self):
        assert codes("""\
            class Reporter:
                def emit(self, line):
                    self._stream.write(line)
                    self._handle.write(line)
        """) == []

    def test_trailing_suppression(self):
        assert codes("""\
            def drive(controller):
                controller.write(0, 1)  # reprolint: disable=REP002 warm-up
        """) == []

    def test_standalone_comment_covers_next_line(self):
        assert codes("""\
            def drive(controller):
                # reprolint: disable=REP002 hammering write; timing unused
                controller.write(0, 1)
        """) == []

    def test_bare_write_many_and_write_chunk_flagged(self):
        assert codes("""\
            def drive(array, controller, las, datas):
                array.write_many(las, datas)
                controller.write_chunk(las, datas)
        """) == ["REP002", "REP002"]

    def test_bare_write_events_flagged(self):
        assert codes("""\
            def drive(array, pas, datas, moves):
                array.write_events(pas, datas, moves)
        """) == ["REP002"]

    def test_bare_run_trace_fast_flagged(self):
        diags = run("""\
            from repro.sim.engine import run_trace_fast
            def drive(controller, trace, engine):
                run_trace_fast(controller, trace)
                engine.run_trace_fast(controller, trace)
        """)
        assert [d.code for d in diags] == ["REP002", "REP002"]
        assert [d.line for d in diags] == [3, 4]

    def test_assigned_batched_latency_ok(self):
        assert codes("""\
            from repro.sim.engine import run_trace_fast
            def drive(array, controller, trace, las, datas):
                chunk_ns = array.write_many(las, datas)
                latency, n = controller.write_chunk(las, datas)
                result = run_trace_fast(controller, trace)
                return chunk_ns + latency, n, result
        """) == []


class TestREP003FloatTimeEquality:
    def test_latency_equality_flagged(self):
        diags = run("""\
            def check(latency, expected):
                return latency == expected
        """)
        assert [d.code for d in diags] == ["REP003"]

    def test_elapsed_ns_inequality_flagged(self):
        assert codes("""\
            def check(array):
                return array.elapsed_ns != 0.0
        """) == ["REP003"]

    def test_ordering_comparison_ok(self):
        assert codes("""\
            def check(latency, budget_ns):
                return latency < budget_ns and budget_ns >= 0
        """) == []

    def test_non_time_names_ok(self):
        assert codes("""\
            def check(wear, times):
                return wear == 3 and times == [1]
        """) == []

    def test_inline_suppression(self):
        assert codes("""\
            def check(latency):
                return latency == 0.0  # reprolint: disable=REP003 exact zero
        """) == []


class TestREP004MutableDefaultArgument:
    def test_list_default_flagged(self):
        diags = run("""\
            def accumulate(item, seen=[]):
                seen.append(item)
                return seen
        """)
        assert [d.code for d in diags] == ["REP004"]

    def test_dict_and_set_call_defaults_flagged(self):
        assert codes("""\
            def f(a={}, b=set()):
                return a, b
        """) == ["REP004", "REP004"]

    def test_none_default_ok(self):
        assert codes("""\
            def accumulate(item, seen=None):
                seen = [] if seen is None else seen
                return seen + [item]
        """) == []

    def test_immutable_defaults_ok(self):
        assert codes("""\
            def f(a=(), b=frozenset(), c=0, d="x"):
                return a, b, c, d
        """) == []

    def test_inline_suppression(self):
        assert codes("""\
            def f(a=[]):  # reprolint: disable=REP004 shared scratch, on purpose
                return a
        """) == []


class TestREP005WallClock:
    def test_time_time_flagged(self):
        diags = run("""\
            import time
            def stamp():
                return time.time()
        """)
        assert [d.code for d in diags] == ["REP005"]
        assert diags[0].line == 3

    def test_perf_counter_import_and_datetime_now_flagged(self):
        assert codes("""\
            from time import perf_counter
            import datetime
            def stamp():
                return datetime.datetime.now()
        """) == ["REP005", "REP005"]

    def test_benchmarks_exempt(self):
        assert codes(
            """\
            import time
            def stamp():
                return time.time()
            """,
            rel_path="benchmarks/test_speed.py",
        ) == []

    def test_simulated_time_ok(self):
        assert codes("""\
            def stamp(array):
                return array.elapsed_ns
        """) == []

    def test_inline_suppression(self):
        assert codes("""\
            import time
            def stamp():
                return time.time()  # reprolint: disable=REP005 wall timer
        """) == []


class TestREP006ModuleLevelMutableState:
    def test_module_level_dict_flagged_in_scope(self):
        diags = run("""\
            _CACHE = {}
        """, rel_path="src/repro/pcm/fake.py")
        assert [d.code for d in diags] == ["REP006"]

    def test_module_level_list_call_flagged(self):
        assert codes("""\
            history = list()
        """, rel_path="src/repro/wearlevel/fake.py") == ["REP006"]

    def test_out_of_scope_package_ok(self):
        assert codes("""\
            _CACHE = {}
        """, rel_path="src/repro/analysis/fake.py") == []

    def test_dunder_and_immutable_ok(self):
        assert codes("""\
            __all__ = ["PCMArray"]
            SIZES = (1, 2, 3)
            NAMES = frozenset({"a"})
        """, rel_path="src/repro/pcm/fake.py") == []

    def test_function_local_mutable_ok(self):
        assert codes("""\
            def build():
                cache = {}
                return cache
        """, rel_path="src/repro/sim/fake.py") == []

    def test_inline_suppression(self):
        assert codes("""\
            _CACHE = {}  # reprolint: disable=REP006 cleared per run by reset()
        """, rel_path="src/repro/sim/fake.py") == []


class TestREP007ParallelismOutsideCampaign:
    def test_multiprocessing_import_flagged(self):
        diags = run("""\
            import multiprocessing
            pool = multiprocessing.Pool
        """)
        assert [d.code for d in diags] == ["REP007"]
        assert diags[0].line == 1

    def test_concurrent_futures_import_styles_flagged(self):
        assert codes("""\
            import concurrent.futures
            from concurrent.futures import ProcessPoolExecutor
            from concurrent import futures
            from multiprocessing import Pool
            from multiprocessing.pool import ThreadPool
        """) == ["REP007"] * 5

    def test_unrelated_imports_ok(self):
        assert codes("""\
            import multiprocessing_logging
            from concurrent import interpreters
            import json
        """) == []

    def test_campaign_package_exempt(self):
        assert codes(
            """\
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing
            """,
            rel_path="src/repro/campaign/runner.py",
        ) == []

    def test_tests_exempt(self):
        assert codes(
            "import multiprocessing\n",
            rel_path="tests/campaign/test_runner.py",
        ) == []

    def test_inline_suppression(self):
        assert codes("""\
            import multiprocessing  # reprolint: disable=REP007 demo only
        """) == []


class TestSuppressionMachinery:
    def test_disable_file_pragma(self):
        assert codes("""\
            # reprolint: disable-file=REP004
            def f(a=[]):
                return a
            def g(b={}):
                return b
        """) == []

    def test_disable_all_on_line(self):
        assert codes("""\
            import numpy as np
            x = np.random.rand()  # reprolint: disable=all
        """) == []

    def test_suppression_is_line_scoped(self):
        diags = run("""\
            import numpy as np
            x = np.random.rand()  # reprolint: disable=REP001
            y = np.random.rand()
        """)
        # The pragma names REP001 only, so REP305 (which also fires on
        # the legacy global generator) survives on line 2.
        assert [(d.code, d.line) for d in diags] == [
            ("REP305", 2), ("REP001", 3), ("REP305", 3),
        ]

    def test_wrong_code_does_not_suppress(self):
        assert codes("""\
            import numpy as np
            x = np.random.rand()  # reprolint: disable=REP002
        """) == ["REP001", "REP305"]

    def test_hash_in_string_is_not_a_pragma(self):
        assert codes("""\
            import numpy as np
            note = "# reprolint: disable=REP001"
            x = np.random.rand()
        """) == ["REP001", "REP305"]


class TestSyntaxErrorHandling:
    def test_unparsable_file_reports_rep000(self):
        diags = run("def broken(:\n")
        assert [d.code for d in diags] == ["REP000"]
