"""Simulation layer.

Five granularities, trading per-write detail for reach.  The first three
drive a real :class:`~repro.sim.memory_system.MemoryController` and
agree bit for bit wherever their regimes overlap:

* the exact scalar engine — :func:`~repro.sim.engine.run_trace`, one
  :meth:`~repro.sim.memory_system.MemoryController.write` per logical
  write; the attacker sees true latencies (the RTA side channel).  The
  reference every faster tier is pinned against.
* the chunk engine — :func:`~repro.sim.engine.run_trace_fast` hands
  whole trace chunks to
  :meth:`~repro.sim.memory_system.MemoryController.write_chunk`, which
  applies the scheme's windows (user writes and remap movements, in
  scalar order) as numpy operations; ``write_chunk(..., out=)`` still
  returns every write's latency.
* the fast-forward tier — :mod:`repro.sim.fastforward`: given a
  :class:`~repro.sim.fastforward.TraceSpec`, ``run_trace_fast`` commits
  whole remap rounds of closed-form per-line wear, then drops back to
  the chunk engine near end of life so the failing write is exact.
* :mod:`repro.sim.roundsim` — remapping-round-granularity vectorized
  simulators for Repeated Address Attack and BPA wear studies at paper
  scale (Figs. 14-16); they take config objects, not a controller, and
  are validated against the exact engine at small scale.
* :mod:`repro.analysis.lifetime` (separate package) — closed-form models.
"""

from repro.sim.engine import (
    SimulationResult,
    run_trace,
    run_trace_fast,
    run_until_failure,
)
from repro.sim.fastforward import TraceSpec, run_fast_forward
from repro.sim.memory_system import MemoryController
from repro.sim.roundsim import (
    RBSGBPASim,
    RoundSimResult,
    SecurityRBSGRAASim,
    TwoLevelSRRAASim,
)
from repro.sim.trace import (
    TraceEntry,
    repeated_address_chunks,
    repeated_address_trace,
    sequential_chunks,
    sequential_trace,
    trace_chunks,
    trace_entries,
    uniform_random_chunks,
    uniform_random_trace,
    zipf_chunks,
    zipf_trace,
)

__all__ = [
    "MemoryController",
    "RBSGBPASim",
    "RoundSimResult",
    "SecurityRBSGRAASim",
    "SimulationResult",
    "TraceEntry",
    "TwoLevelSRRAASim",
    "repeated_address_chunks",
    "repeated_address_trace",
    "run_trace",
    "run_trace_fast",
    "run_until_failure",
    "sequential_chunks",
    "sequential_trace",
    "trace_chunks",
    "trace_entries",
    "uniform_random_chunks",
    "uniform_random_trace",
    "zipf_chunks",
    "zipf_trace",
]
