"""Remapping Timing Attack against Multi-Way SR (§III-E, last paragraph).

Multi-Way SR partitions the memory *by address sequence*, so the high LA
bits name the target sub-region outright — the attacker skips the whole
outer-key detection that two-level SR forces on it.  What remains is a
one-level SR attack confined to one sub-region, and the confinement makes
it *cheaper*: labelling sweeps touch only the sub-region's ``N/R`` lines
(the paper: "it takes at most ``(2N/R)·log2(R)`` writes to detect the
remapping of the target sub-region"), and writes to other sub-regions never
perturb the target's counters.

The procedure mirrors :class:`~repro.attacks.rta_sr.SRTimingAttack` with
every quantity scoped to the chosen sub-region.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import AttackResult
from repro.attacks.oracle import LatencyOracle
from repro.attacks.rta_sr import _SRMirror
from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL0, ALL1, LineData
from repro.sim.memory_system import MemoryController
from repro.util.bitops import bit_length_exact
from repro.wearlevel.multiway_sr import MultiWaySR


class MultiWaySRTimingAttack:
    """RTA against :class:`~repro.wearlevel.multiway_sr.MultiWaySR`."""

    name = "RTA-MWSR"

    def __init__(
        self,
        controller: MemoryController,
        target_region: int = 0,
        target_offset: int = 1,
        tolerance_ns: float = 1.0,
    ):
        scheme = controller.scheme
        if not isinstance(scheme, MultiWaySR):
            raise TypeError("MultiWaySRTimingAttack requires a MultiWaySR scheme")
        if not 0 <= target_region < scheme.n_subregions:
            raise ValueError("target_region out of range")
        if target_offset == 0:
            raise ValueError("offset 0 is the probe address; pick another")
        self.controller = controller
        self.oracle = LatencyOracle(controller, tolerance_ns)
        self.region = target_region
        self.base = target_region * scheme.subregion_size
        self.size = scheme.subregion_size
        self.s_bits = bit_length_exact(self.size)
        self.target_offset = target_offset
        self.remap_interval = scheme.regions.remap_interval
        self.mirror = _SRMirror(self.size, self.remap_interval)
        self.detection_writes = 0
        self.synchronized = False

    # ------------------------------------------------------------- helpers

    def _la(self, offset: int) -> int:
        return self.base + offset

    def _bit_pattern(self, offset: int, j: int) -> LineData:
        return ALL1 if (offset >> j) & 1 else ALL0

    def _label_sweep(self, bit: Optional[int]) -> None:
        """Label only the target sub-region — N/R writes, not N."""
        for offset in range(self.size):
            data = ALL0 if bit is None else self._bit_pattern(offset, bit)
            # reprolint: disable=REP002 labeling write; latency unused
            self.oracle.write(self._la(offset), data)
            self.mirror.count_write()

    # ----------------------------------------------------------- procedure

    def synchronize(self, max_rounds: int = 3) -> None:
        """Observe offset 0's round-start swap, confirming the mirror."""
        start = self.oracle.user_writes
        self._label_sweep(None)
        budget = max_rounds * self.size * self.remap_interval
        for _ in range(budget):
            extra = self.oracle.write(self._la(0), ALL1)
            step = self.mirror.count_write()
            if self.oracle.matches(extra, self.oracle.swap_01):
                if step is None or step.la != 0:
                    raise RuntimeError("swap observed off the round boundary")
                self.synchronized = True
                self.detection_writes += self.oracle.user_writes - start
                return
        raise RuntimeError("synchronization failed")

    def detect_key_xor(self) -> int:
        """Recover the sub-region's ``keyc XOR keyp`` for this round."""
        if not self.synchronized:
            self.synchronize()
        start = self.oracle.user_writes
        key_xor = 0
        for j in range(self.s_bits):
            self._label_sweep(j)
            key_xor |= self._observe_bit() << j
        self.detection_writes += self.oracle.user_writes - start
        return key_xor

    def _observe_bit(self) -> int:
        budget = 2 * self.size * self.remap_interval
        for _ in range(budget):
            extra = self.oracle.write(self._la(0), ALL0)
            self.mirror.count_write()
            if extra <= self.oracle.tolerance_ns:
                continue
            if self.oracle.matches(extra, self.oracle.swap_01):
                return 1
            if self.oracle.matches(extra, self.oracle.swap_00) or (
                self.oracle.matches(extra, self.oracle.swap_11)
            ):
                return 0
            raise RuntimeError(f"unclassifiable latency {extra:.1f} ns")
        raise RuntimeError("no swap observed (keys equal this round?)")

    def wear_out(self, max_writes: int = 100_000_000) -> AttackResult:
        """Pin writes on one physical slot of the target sub-region."""
        key_xor = self.detect_key_xor()
        holder = self.target_offset
        if key_xor and self.mirror.crp > min(holder, holder ^ key_xor):
            holder ^= key_xor
        writes = 0
        try:
            while writes < max_writes:
                # reprolint: disable=REP002 hammering write; timing unused
                self.oracle.write(self._la(holder), ALL1)
                writes += 1
                step = self.mirror.count_write()
                if step is None:
                    continue
                if step.round_started:
                    key_xor = self.detect_key_xor()
                    if key_xor and self.mirror.crp > min(
                        holder, holder ^ key_xor
                    ):
                        holder ^= key_xor
                elif key_xor and step.la == min(holder, holder ^ key_xor):
                    holder ^= key_xor
        except LineFailure as failure:
            return AttackResult(
                attack=self.name,
                user_writes=self.oracle.user_writes,
                elapsed_ns=self.oracle.elapsed_ns,
                failed=True,
                failed_pa=failure.pa,
                detection_writes=self.detection_writes,
            )
        return AttackResult(
            attack=self.name,
            user_writes=self.oracle.user_writes,
            elapsed_ns=self.oracle.elapsed_ns,
            failed=False,
            detection_writes=self.detection_writes,
        )

    def run(self, max_writes: int = 100_000_000) -> AttackResult:
        """Full attack: synchronize, then track-and-hammer to failure."""
        self.synchronize()
        return self.wear_out(max_writes=max_writes)
