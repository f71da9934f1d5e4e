#!/usr/bin/env python
"""The original motivation (§I): benign-but-skewed traffic also kills PCM.

Real applications write non-uniformly; without wear leveling the hottest
lines die far before the device's ideal lifetime.  This script replays a
zipf workload against the schemes and reports device lifetime and wear
statistics — plus the process-variation twist: with per-line endurance
variation, even *uniform* traffic fails early unless wear leveling spreads
around the weak lines' share.

Run:  python examples/benign_workloads.py
"""

from repro import (
    MemoryController,
    NoWearLeveling,
    PCMConfig,
    SecurityRBSG,
    StartGap,
    TwoLevelSecurityRefresh,
)
from repro.pcm.stats import WearStats
from repro.sim.engine import run_trace_fast
from repro.sim.trace import sequential_chunks, zipf_chunks

N_LINES = 2**9
ENDURANCE = 2e4
BUDGET = 40_000_000

SCHEMES = {
    "none": lambda: NoWearLeveling(N_LINES),
    "Start-Gap": lambda: StartGap(N_LINES, remap_interval=16),
    "2-level SR": lambda: TwoLevelSecurityRefresh(
        N_LINES, n_subregions=8, inner_interval=16, outer_interval=32, rng=1
    ),
    "Security RBSG": lambda: SecurityRBSG(
        N_LINES, n_subregions=8, inner_interval=16, outer_interval=32,
        n_stages=7, rng=1,
    ),
}

print(f"zipf(1.2) workload, {N_LINES} lines, endurance {ENDURANCE:g}")
ideal_writes = N_LINES * ENDURANCE
print(f"ideal lifetime: {ideal_writes:g} writes\n")
print(f"{'scheme':>14} | {'writes to failure':>18} | {'of ideal':>8} | "
      f"{'wear gini':>9}")
print("-" * 60)
for name, factory in SCHEMES.items():
    config = PCMConfig(n_lines=N_LINES, endurance=ENDURANCE)
    controller = MemoryController(factory(), config)
    result = run_trace_fast(
        controller,
        zipf_chunks(N_LINES, alpha=1.2, rng=7),
        max_writes=BUDGET,
    )
    gini = WearStats.from_wear(controller.array.wear).gini
    writes = result.user_writes if result.failed else BUDGET
    label = f"{writes}" if result.failed else f">{BUDGET}"
    print(f"{name:>14} | {label:>18} | {writes / ideal_writes:>7.1%} | "
          f"{gini:9.3f}")

print("\nWith 25% per-line endurance variation (weak lines), uniform "
      "round-robin traffic:")
print(f"{'scheme':>14} | {'writes to failure':>18} | {'of ideal':>8}")
print("-" * 48)
for name, factory in SCHEMES.items():
    config = PCMConfig(n_lines=N_LINES, endurance=ENDURANCE)
    controller = MemoryController(
        factory(), config, endurance_variation=0.25, rng=3
    )
    result = run_trace_fast(
        controller, sequential_chunks(N_LINES), max_writes=BUDGET
    )
    writes = result.user_writes if result.failed else BUDGET
    label = f"{writes}" if result.failed else f">{BUDGET}"
    print(f"{name:>14} | {label:>18} | {writes / ideal_writes:>7.1%}")

print("\nReading guide: wear leveling buys an order of magnitude under "
      "skew; under variation everyone is bounded by the weak lines, which "
      "is why real parts pair wear leveling with line sparing "
      "(repro.pcm.sparing).")
