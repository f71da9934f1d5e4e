"""Cross-cutting property-based tests (hypothesis).

These complement the per-module property tests with whole-stack
invariants: no sequence of operations — whatever the scheme, geometry, or
wrapper composition — may corrupt data, break mapping bijectivity, or
produce latencies below the physical floor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.defense.delayed_write import DelayedWriteController
from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.sim.memory_system import MemoryController
from repro.wearlevel import (
    RegionBasedStartGap,
    SecurityRefresh,
    StartGap,
    TwoLevelSecurityRefresh,
)

DATA = st.sampled_from([ALL0, ALL1, MIXED])


def build_scheme(kind: str, n_lines: int, seed: int):
    if kind == "startgap":
        return StartGap(n_lines, remap_interval=3)
    if kind == "rbsg":
        return RegionBasedStartGap(n_lines, 4, 3, rng=seed)
    if kind == "sr":
        return SecurityRefresh(n_lines, 3, rng=seed)
    if kind == "two-level-sr":
        return TwoLevelSecurityRefresh(n_lines, 4, 3, 5, rng=seed)
    return SecurityRBSG(n_lines, 4, 3, 5, 3, rng=seed)


SCHEME_KINDS = ["startgap", "rbsg", "sr", "two-level-sr", "security-rbsg"]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(SCHEME_KINDS),
    seed=st.integers(0, 10_000),
    ops=st.lists(st.tuples(st.integers(0, 63), DATA), min_size=1,
                 max_size=300),
)
def test_no_scheme_corrupts_data(kind, seed, ops):
    scheme = build_scheme(kind, 64, seed)
    controller = MemoryController(
        scheme, PCMConfig(n_lines=64, endurance=1e12)
    )
    shadow = {}
    for la, data in ops:
        controller.write(la, data)
        shadow[la] = data
    for la, data in shadow.items():
        got, _ = controller.read(la)
        assert got == data
    snapshot = scheme.mapping_snapshot()
    assert len(set(snapshot)) == 64


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(SCHEME_KINDS),
    seed=st.integers(0, 10_000),
    ops=st.lists(st.tuples(st.integers(0, 63), DATA), min_size=1,
                 max_size=150),
)
def test_latency_never_below_physical_floor(kind, seed, ops):
    """Observed latency >= the write's own cost; extras only add."""
    scheme = build_scheme(kind, 64, seed)
    controller = MemoryController(
        scheme, PCMConfig(n_lines=64, endurance=1e12)
    )
    for la, data in ops:
        latency = controller.write(la, data)
        assert latency >= controller.baseline_write_latency(data) - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    buffer_lines=st.integers(1, 12),
    ops=st.lists(st.tuples(st.integers(0, 31), DATA), min_size=1,
                 max_size=200),
)
def test_delayed_write_wrapper_preserves_data(seed, buffer_lines, ops):
    controller = DelayedWriteController(
        StartGap(32, remap_interval=3),
        PCMConfig(n_lines=32, endurance=1e12),
        buffer_lines=buffer_lines,
    )
    shadow = {}
    for la, data in ops:
        controller.write(la, data)
        shadow[la] = data
    for la, data in shadow.items():
        got, _ = controller.read(la)
        assert got == data
    # Flushing must not change what reads return.
    controller.flush()
    for la, data in shadow.items():
        got, _ = controller.read(la)
        assert got == data


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(SCHEME_KINDS),
    seed=st.integers(0, 10_000),
    n_writes=st.integers(1, 400),
)
def test_wear_conservation(kind, seed, n_writes):
    """Total array wear == user writes + remap movement writes, exactly."""
    scheme = build_scheme(kind, 64, seed)
    config = PCMConfig(n_lines=64, endurance=1e12)
    controller = MemoryController(scheme, config)
    rng = np.random.default_rng(seed)
    for _ in range(n_writes):
        controller.write(int(rng.integers(0, 64)), ALL1)
    assert int(controller.array.wear.sum()) == controller.total_writes
