"""Tests for the exact per-write simulation driver."""

import pytest

from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.sim.engine import run_trace, run_trace_fast, run_until_failure
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.sim.trace import repeated_address_trace, uniform_random_trace
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.startgap import StartGap


def make_controller(n_lines=16, endurance=1e12, scheme=None):
    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = scheme or NoWearLeveling(n_lines)
    return MemoryController(scheme, config)


class TestRunTrace:
    def test_runs_to_stream_end(self):
        controller = make_controller()
        result = run_trace(controller, repeated_address_trace(0, n_writes=50))
        assert result.user_writes == 50
        assert not result.failed
        assert result.total_writes == 50

    def test_max_writes_caps(self):
        controller = make_controller()
        result = run_trace(
            controller, repeated_address_trace(0), max_writes=30
        )
        assert result.user_writes == 30

    def test_failure_reported(self):
        controller = make_controller(endurance=10)
        result = run_trace(controller, repeated_address_trace(4, n_writes=100))
        assert result.failed
        assert result.failed_pa == 4
        assert result.user_writes == 10

    def test_lifetime_seconds(self):
        controller = make_controller(endurance=10)
        result = run_trace(controller, repeated_address_trace(0, n_writes=100))
        assert result.lifetime_seconds == pytest.approx(10 * 1000e-9)

    def test_write_amplification(self):
        controller = make_controller(scheme=StartGap(16, remap_interval=2))
        result = run_trace(controller, repeated_address_trace(0, n_writes=100))
        # One remap copy per 2 user writes → amplification 1.5.
        assert result.write_amplification == pytest.approx(1.5)

    def test_empty_trace(self):
        result = run_trace(make_controller(), iter(()))
        assert result.user_writes == 0
        assert result.write_amplification == 0.0


class TestRunUntilFailure:
    def test_returns_failure(self):
        controller = make_controller(endurance=5)
        result = run_until_failure(
            controller, repeated_address_trace(1), max_writes=100
        )
        assert result.failed

    def test_raises_if_no_failure(self):
        controller = make_controller()
        with pytest.raises(RuntimeError, match="did not fail"):
            run_until_failure(
                controller, uniform_random_trace(16, rng=0), max_writes=100
            )


class TestRunTraceFastBatch:
    def test_trace_spec_is_cut_at_its_own_batch(self):
        """A ``TraceSpec`` is cut at ``spec.batch``, because its random
        stream depends on it; ``run_trace_fast(batch=)`` changes neither
        the chunks ``write_chunk`` sees nor the result."""
        outcomes = []
        for batch in (512, 8192):
            controller = make_controller(
                n_lines=256, scheme=SecurityRBSG(256, n_subregions=8, rng=3)
            )
            sizes = []
            write_chunk = controller.write_chunk

            def counted(las, datas):
                sizes.append(len(las))
                return write_chunk(las, datas)

            controller.write_chunk = counted
            spec = TraceSpec(kind="uniform", n_lines=256, n_writes=20_000, seed=3)
            result = run_trace_fast(controller, spec, batch=batch)
            outcomes.append((sizes, result, controller.array.wear.tolist()))
        assert outcomes[0][0] == [8192, 8192, 3616]
        assert outcomes[1] == outcomes[0]
