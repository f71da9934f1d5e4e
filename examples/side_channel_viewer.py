#!/usr/bin/env python
"""Watch the side channel: record and render write latencies.

Runs the same hammering stream against RBSG and Security RBSG as one
`MemoryController.write_chunk` call, whose ``out=`` array receives every
write's observed latency, and renders what a timing attacker sees: the
latency histogram (the Fig. 4 classes) and a timeline strip.  Also saves
the attack trace as an ``.rbt`` file and summarises it read back from
disk.

Run:  python examples/side_channel_viewer.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import ALL0, ALL1, MemoryController, PCMConfig, SecurityRBSG
from repro.traffic import read_rbt_chunks, write_rbt
from repro.util.ascii_plot import bar_chart, sparkline
from repro.wearlevel import RegionBasedStartGap

N_LINES = 2**9
config = PCMConfig(n_lines=N_LINES, endurance=1e12)

# The RTA prologue: zero everything, then hammer one ALL-1 line.
LAS = np.concatenate([np.arange(N_LINES), np.full(2000, 5)])
DATAS = np.concatenate([
    np.full(N_LINES, int(ALL0), dtype=np.int8),
    np.full(2000, int(ALL1), dtype=np.int8),
])


def observe(name, scheme):
    latencies = np.empty(LAS.size)  # out= receives each write's latency
    _ = MemoryController(scheme, config).write_chunk(LAS, DATAS, out=latencies)
    print(f"\n--- {name} ---")
    values, counts = np.unique(latencies, return_counts=True)
    labels = [f"{latency:7.0f} ns" for latency in values]
    print(bar_chart(labels, counts.tolist(), width=40))
    print(f"last 120 writes: {sparkline(latencies[-120:])}")
    extra_classes = {
        float(latency) - 1000.0
        for latency in values
        if latency > 1000.0
    }
    print(f"remap latency classes observed on the hammered line: "
          f"{sorted(extra_classes)}")


observe(
    "RBSG (static randomizer: the 1125 ns spikes track ONE line forever)",
    RegionBasedStartGap(N_LINES, n_regions=8, remap_interval=8, rng=7),
)
observe(
    "Security RBSG (DFN re-keys each round: spikes carry no stable address "
    "information)",
    SecurityRBSG(N_LINES, n_subregions=8, inner_interval=8,
                 outer_interval=16, n_stages=7, rng=7),
)

# Persist the attack stream and summarise it from disk.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "rta_prologue.rbt"
    write_rbt(path, [(LAS[:2000], DATAS[:2000])],
              metadata={"phase": "rta-prologue"})
    las = np.concatenate([chunk for chunk, _ in read_rbt_chunks(path)])
    values, counts = np.unique(las, return_counts=True)
    hottest = int(np.argmax(counts))
    print(f"\nsaved trace: {las.size} writes, "
          f"{values.size} distinct addresses, hottest LA "
          f"{values[hottest]} at {counts[hottest] / las.size:.0%} share")
