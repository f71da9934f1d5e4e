"""Latency observation helper — the attacker's entire view of the system.

:class:`LatencyOracle` wraps a controller and exposes ``extra_latency``
per write, one write at a time or a chunk at a time: the observed latency
minus the known baseline cost of the attacker's own write.  Any positive remainder is remapping work the controller did on the
side, and its magnitude classifies the remapped data (Fig. 4):

================================  ===========================
remap observed                    extra latency (default ns)
================================  ===========================
Start-Gap copy of ALL-0 data      125 + 125  = 250
Start-Gap copy of ALL-1 data      125 + 1000 = 1125
SR swap ALL-0 / ALL-0             2*125 + 2*125 = 500
SR swap ALL-0 / ALL-1             2*125 + 125 + 1000 = 1375
SR swap ALL-1 / ALL-1             2*125 + 2*1000 = 2250
================================  ===========================
"""

from __future__ import annotations

import numpy as np

from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL0, ALL1, LineData
from repro.sim.memory_system import MemoryController


class LatencyOracle:
    """Observation side of an attack: writes, and the timing they leak."""

    def __init__(self, controller: MemoryController, tolerance_ns: float = 1.0):
        self.controller = controller
        self.tolerance_ns = tolerance_ns
        self.user_writes = 0
        timing = controller.array.timing
        self._read = timing.read_latency()
        # Reference remap latencies for classification.
        self.copy_all0 = timing.copy_latency(ALL0)
        self.copy_all1 = timing.copy_latency(ALL1)
        self.swap_00 = timing.swap_latency(ALL0, ALL0)
        self.swap_01 = timing.swap_latency(ALL0, ALL1)
        self.swap_11 = timing.swap_latency(ALL1, ALL1)

    def write(self, la: int, data: LineData) -> float:
        """Issue a write; return the *extra* latency beyond the write itself."""
        observed = self.controller.write(la, data)
        self.user_writes += 1
        return observed - self.controller.baseline_write_latency(data)

    def write_many(self, las: np.ndarray, datas: np.ndarray) -> np.ndarray:
        """Write a chunk; return each write's extra latency.

        One ``controller.write_chunk`` that reads out every write's
        latency, so the attacker observes exactly what as many
        :meth:`write` calls would.  On a
        :class:`~repro.pcm.array.LineFailure` only the writes before the
        failing one are counted, as with :meth:`write`.
        """
        datas = np.asarray(datas, dtype=np.int8)
        observed = np.empty(datas.size)
        try:
            _ = self.controller.write_chunk(las, datas, out=observed)
        except LineFailure as failure:
            assert failure.chunk_index is not None
            self.user_writes += failure.chunk_index
            raise
        self.user_writes += int(datas.size)
        return observed - self.controller.array.timing.latency_table[datas]

    def matches(self, extra_ns: float, reference_ns: float) -> bool:
        """Is an observed extra latency the given remap class?"""
        return abs(extra_ns - reference_ns) <= self.tolerance_ns

    @property
    def elapsed_ns(self) -> float:
        """Simulated wall clock, as the attacker also experiences it."""
        return self.controller.elapsed_ns
