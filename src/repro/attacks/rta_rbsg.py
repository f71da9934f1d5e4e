"""Remapping Timing Attack against Region-Based Start-Gap (Section III-B).

Threat model: the attacker issues all memory writes (compromised OS, caches
bypassed) and observes each write's latency.  It knows the *algorithm* and
its public parameters (number of lines, regions, remapping interval) but not
the static randomizer's keys.

The attack recovers, for a chosen target ``L_i``, the logical addresses
``L_{i-1}, ..., L_{i-n}`` that are physically adjacent below it — an
invariant of RBSG because the static randomizer never changes.  It then
parks on one physical slot and writes whichever logical address currently
resides there, wearing a single line with nearly every write:

1. **Synchronize** (steps 1-3): zero the whole memory, hammer ``L_i`` with
   ALL-1 until a gap movement shows the ALL-1 copy latency (1125 ns) —
   that movement carried ``L_i``, revealing its region-local slot.  From
   then on the attacker mirrors the region's ``(start, gap, counter)``
   state machine exactly (it authors every write, and a full-memory sweep
   advances the region counter by exactly ``N/R`` regardless of order).
2. **Detect** (steps 4-6): for each address-bit ``j``, label every line's
   content with its LA's bit ``j`` (ALL-0 / ALL-1 sweep), then watch gap
   movements: the movement carrying the line at relative offset ``t`` below
   ``L_i`` leaks bit ``j`` of ``L_{i-t}`` through its copy latency.
3. **Wear out**: all attacker writes land on one physical slot; when the
   mirror shows the resident departing, switch to the next ``L_{i-t}``.

The attacker writes in chunks (:meth:`LatencyOracle.write_many`), still
seeing every write's latency: the mirror knows where each movement falls,
so a chunk never runs past a movement whose latency decides what to write
next.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.oracle import LatencyOracle
from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL0, ALL1, LineData
from repro.sim.memory_system import MemoryController
from repro.util.bitops import bit_length_exact
from repro.wearlevel.rbsg import RegionBasedStartGap


@dataclass(frozen=True)
class _Movement:
    """A gap movement as reconstructed by the attacker's mirror."""

    src: int  #: region-local slot the data was copied from
    dst: int  #: region-local slot it was copied to
    pre_start: int  #: start register before the movement
    pre_gap: int  #: gap register before the movement
    at: int  #: index of the write that triggered it, among those counted


class _RegionMirror:
    """The attacker's exact replica of one region's Start-Gap registers.

    Identical state machine to one region of
    :class:`~repro.wearlevel.startgap.StartGapBank`; kept separate so the
    attack demonstrably uses no scheme internals, only the public algorithm.
    """

    def __init__(self, n_lines: int, remap_interval: int):
        self.n = n_lines
        self.psi = remap_interval
        self.start = 0
        self.gap = n_lines
        self.count = 0

    def count_write(self) -> Optional[_Movement]:
        """Account one write known to land in the region."""
        moves = self.count_writes(1)
        return moves[0] if moves else None

    def count_writes(self, k: int) -> List[_Movement]:
        """Account ``k`` writes known to land in the region; return the gap
        movements they trigger, in order."""
        moves = []
        at = self.writes_to_movement() - 1
        while at < k:
            pre_start, pre_gap = self.start, self.gap
            self.gap = (self.gap - 1) % (self.n + 1)
            if self.gap == self.n:
                self.start = (self.start + 1) % self.n
            moves.append(_Movement(self.gap, pre_gap, pre_start, pre_gap, at))
            at += self.psi
        self.count += k
        return moves

    def writes_to_movement(self) -> int:
        """Writes up to and including the one that triggers the next gap
        movement."""
        return self.psi - self.count % self.psi

    def writes_until_source(self, slot: int) -> int:
        """Writes up to and including the one whose gap movement copies
        from ``slot``: each movement copies from the slot below the gap and
        leaves the gap there."""
        later = (self.gap - 1 - slot) % (self.n + 1)
        return self.writes_to_movement() + later * self.psi

    def slot_to_local_ia(self, slot: int, start: int, gap: int) -> int:
        """Invert the Start-Gap translation under a given register state."""
        if slot == gap:
            raise ValueError("the gap slot holds no line")
        pa = slot - 1 if slot > gap else slot
        return (pa - start) % self.n

    def local_ia_to_slot(self, ia: int, start: Optional[int] = None,
                         gap: Optional[int] = None) -> int:
        """Forward Start-Gap translation (defaults: current registers)."""
        start = self.start if start is None else start
        gap = self.gap if gap is None else gap
        pa = (ia + start) % self.n
        if pa >= gap:
            pa += 1
        return pa


class RBSGTimingAttack:
    """RTA against :class:`~repro.wearlevel.rbsg.RegionBasedStartGap`."""

    name = "RTA-RBSG"

    def __init__(
        self,
        controller: MemoryController,
        target_la: int = 0,
        tolerance_ns: float = 1.0,
    ):
        scheme = controller.scheme
        if not isinstance(scheme, RegionBasedStartGap):
            raise TypeError("RBSGTimingAttack requires a RegionBasedStartGap scheme")
        self.controller = controller
        self.oracle = LatencyOracle(controller, tolerance_ns)
        self.target_la = target_la
        self.n_lines = scheme.n_lines
        self.n_bits = bit_length_exact(scheme.n_lines)
        self.region_size = scheme.region_size
        self.remap_interval = scheme.regions.remap_interval
        self.mirror = _RegionMirror(self.region_size, self.remap_interval)
        self.target_local_ia: Optional[int] = None
        self.detection_writes = 0

    # -------------------------------------------------------------- helpers

    def _bit_pattern(self, la: int, j: int) -> LineData:
        return ALL1 if (la >> j) & 1 else ALL0

    def _hammer(
        self, la: int, data: LineData, k: int
    ) -> Tuple[np.ndarray, List[_Movement]]:
        """Write ``la`` ``k`` times in one chunk; return each write's extra
        latency and the movements the mirror counts among the writes."""
        extra = self.oracle.write_many(
            np.full(k, la, dtype=np.int64), np.full(k, int(data), dtype=np.int8)
        )
        return extra, self.mirror.count_writes(k)

    def _offset(self, move: _Movement) -> int:
        """Offset ``t`` below the target of the line a movement carries."""
        carried = self.mirror.slot_to_local_ia(move.src, move.pre_start, move.pre_gap)
        assert self.target_local_ia is not None
        return (self.target_local_ia - carried) % self.region_size

    def _sweep(self, bit: Optional[int]) -> None:
        """Write every logical address (step 1 / step 4 labelling pass).

        ``bit is None`` writes ALL-0 everywhere; otherwise each line gets
        its LA's bit ``bit`` as content.  Latencies observed during the
        sweep are discarded (movements of other regions pollute them), but
        the region counter advances by exactly ``region_size`` writes.
        """
        las = np.arange(self.n_lines, dtype=np.int64)
        datas = np.full(self.n_lines, int(ALL0), dtype=np.int8)
        if bit is not None:
            datas[(las >> bit) & 1 == 1] = int(ALL1)
        _ = self.oracle.write_many(las, datas)
        self.mirror.count_writes(self.region_size)

    # ----------------------------------------------------------- phase A

    def synchronize(self, max_writes: Optional[int] = None) -> int:
        """Steps 1-3: locate the target line's region-local slot.

        Returns the region-local intermediate address of the target line
        (the attacker's coordinate origin for everything that follows).
        Each chunk ends at the next mirrored movement, whose latency
        decides whether to go on.
        """
        start_writes = self.oracle.user_writes
        self._sweep(None)  # step 1: ALL-0 everywhere
        budget = max_writes or (self.region_size + 2) * self.remap_interval
        written = 0
        while written < budget:  # steps 2-3
            k = min(self.mirror.writes_to_movement(), budget - written)
            extra, moves = self._hammer(self.target_la, ALL1, k)
            written += k
            for info in moves:
                if self.oracle.matches(extra[info.at], self.oracle.copy_all1):
                    # The only ALL-1 line is the target: this movement carried it.
                    self.target_local_ia = self.mirror.slot_to_local_ia(
                        info.src, info.pre_start, info.pre_gap
                    )
                    self.detection_writes += self.oracle.user_writes - start_writes
                    return self.target_local_ia
        raise RuntimeError("synchronization failed: no ALL-1 remap observed")

    # ----------------------------------------------------------- phase B

    def _pass_writes(self, needed: Set[int], budget: int) -> int:
        """Writes until the movement that carries the last of the ``needed``
        offsets (at most ``budget``), walked on a copy of the mirror."""
        plan = copy.copy(self.mirror)
        left = set(needed)
        writes = 0
        while left and writes < budget:
            step = plan.writes_to_movement()
            (move,) = plan.count_writes(step)
            left.discard(self._offset(move))
            writes += step
        return min(writes, budget)

    def detect_sequence(self, n: int) -> List[int]:
        """Steps 4-6: recover ``[L_{i-1}, ..., L_{i-n}]`` bit by bit.

        Each address bit's hammering is one chunk: which offset each
        movement carries is known before writing, so the chunk ends at
        the movement that carries the last offset still needed, and its
        movements are classified in order afterwards.  So an
        unclassifiable copy latency raises its ``RuntimeError`` only after
        the rest of that pass has been written, where a write-by-write
        attack would stop at the bad write.
        """
        if not 1 <= n <= self.region_size - 1:
            raise ValueError(f"n must be in [1, {self.region_size - 1}]")
        if self.target_local_ia is None:
            self.synchronize()
        start_writes = self.oracle.user_writes
        recovered = [0] * (n + 1)  # index t in [1, n]
        budget = (self.region_size + 2) * self.remap_interval * 2
        for j in range(self.n_bits):
            self._sweep(j)  # step 4: label every line with its LA's bit j
            needed = set(range(1, n + 1))
            # Step 5: hammer the target; each movement leaks one line's bit.
            k = self._pass_writes(needed, budget)
            data = self._bit_pattern(self.target_la, j)
            extra, moves = self._hammer(self.target_la, data, k)
            for info in moves:
                t = self._offset(info)
                if t not in needed:
                    continue  # offset already recovered: observation is redundant
                if self.oracle.matches(extra[info.at], self.oracle.copy_all1):
                    recovered[t] |= 1 << j
                elif not self.oracle.matches(extra[info.at], self.oracle.copy_all0):
                    raise RuntimeError(
                        f"unclassifiable remap latency {extra[info.at]:.1f} ns"
                    )
                needed.discard(t)
            if needed:
                raise RuntimeError(
                    f"bit {j}: gap never passed offsets {sorted(needed)}"
                )
        self.detection_writes += self.oracle.user_writes - start_writes
        return recovered[1:]

    # ---------------------------------------------------------- phase C

    def wear_out(
        self, sequence: List[int], max_writes: int = 100_000_000
    ) -> AttackResult:
        """Pin all writes onto one physical slot until it fails.

        ``sequence`` is the output of :meth:`detect_sequence`.  The attacked
        slot is wherever the target line sits when this is called; residents
        rotate through ``[L_i] + sequence`` as the gap sweeps past.  When the
        *whole* region chain was recovered (``len(sequence) == N/R - 1``),
        the rotation is cyclic (``L_{i-N/R} == L_i``) and the attack runs
        until failure; a partial chain ends when it is exhausted.  Each
        resident is one chunk, up to the movement that carries it away.
        """
        if self.target_local_ia is None:
            raise RuntimeError("call synchronize()/detect_sequence() first")
        residents = [self.target_la] + list(sequence)
        cyclic = len(residents) == self.region_size
        target_slot = self.mirror.local_ia_to_slot(self.target_local_ia)
        idx = 0
        writes = 0
        try:
            while writes < max_writes:
                due = self.mirror.writes_until_source(target_slot)
                k = min(due, max_writes - writes)
                _ = self._hammer(residents[idx], ALL1, k)
                writes += k
                if k == due:
                    # Resident departed; the next line arrives one movement
                    # later — start hammering it immediately (its current
                    # slot is adjacent, costing <= one interval of slack).
                    idx += 1
                    if idx >= len(residents):
                        if not cyclic:
                            break  # recovered sequence exhausted
                        idx = 0
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

    # ------------------------------------------------------------- driver

    def run(self, max_writes: int = 100_000_000) -> AttackResult:
        """Full attack: synchronize, size and detect the sequence, wear out."""
        self.synchronize()
        endurance = self.controller.config.endurance
        per_dwell = (self.region_size + 1) * self.remap_interval
        n = min(self.region_size - 1, max(1, int(endurance // per_dwell) + 2))
        sequence = self.detect_sequence(n)
        return self.wear_out(sequence, max_writes=max_writes)
