"""Remapping Timing Attack against one-level Security Refresh (Section III-D).

The attacker recovers ``keyc XOR keyp`` one bit per labelling pass:

1. **Synchronize** (steps 1-2): zero the memory, hammer LA ``0`` with ALL-1
   until a swap shows the mixed latency (1375 ns) — LA 0 is the only ALL-1
   line, and its swap fires exactly when the CRP wraps to 0, marking a
   round start.  From boot the attacker can also *count* writes (the paper:
   "the CRP position could be calculated by counting the number of
   writes"), which this implementation mirrors exactly.
2. **Detect** (steps 3-5): label every line's content with its LA's bit
   ``j``; every observed swap is of lines ``(CRP, CRP XOR keyxor)``, so its
   latency class (equal contents → 500/2250 ns, mixed → 1375 ns) leaks
   ``bit_j(keyc XOR keyp)``.
3. **Wear out**: hammer the logical address currently resident at one
   physical slot; the resident flips to its pair when the CRP passes it,
   and the key XOR is re-detected at every round boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.attacks.base import AttackResult
from repro.attacks.oracle import LatencyOracle
from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL0, ALL1, LineData
from repro.sim.memory_system import MemoryController
from repro.util.bitops import bit_length_exact
from repro.wearlevel.security_refresh import SecurityRefresh


@dataclass(frozen=True)
class _CRPStep:
    """One CRP advance as reconstructed by the attacker's mirror."""

    la: int  #: the remap candidate (CRP value before advancing)
    round_started: bool  #: True if this step wrapped into a new round


class _SRMirror:
    """Attacker's replica of the SR write counter / CRP registers."""

    def __init__(self, n_lines: int, remap_interval: int):
        self.n = n_lines
        self.psi = remap_interval
        self.count = 0
        self.crp = 0
        self.rounds = 0

    def count_write(self) -> Optional[_CRPStep]:
        self.count += 1
        if self.count % self.psi != 0:
            return None
        la = self.crp
        self.crp += 1
        started = False
        if self.crp == self.n:
            self.crp = 0
            self.rounds += 1
            started = True
        return _CRPStep(la=la, round_started=started)

    @property
    def writes_until_step(self) -> int:
        return self.psi - (self.count % self.psi)


class SRTimingAttack:
    """RTA against :class:`~repro.wearlevel.security_refresh.SecurityRefresh`."""

    name = "RTA-SR"

    def __init__(
        self,
        controller: MemoryController,
        target_la: int = 1,
        tolerance_ns: float = 1.0,
    ):
        scheme = controller.scheme
        if not isinstance(scheme, SecurityRefresh) or scheme.n_subregions != 1:
            raise TypeError(
                "SRTimingAttack requires a one-region SecurityRefresh scheme"
            )
        if target_la == 0:
            raise ValueError("LA 0 is the probe address; pick another target")
        self.controller = controller
        self.oracle = LatencyOracle(controller, tolerance_ns)
        self.target_la = target_la
        self.n_lines = scheme.n_lines
        self.n_bits = bit_length_exact(scheme.n_lines)
        self.remap_interval = scheme.regions.remap_interval
        self.mirror = _SRMirror(self.n_lines, self.remap_interval)
        self.detection_writes = 0
        self.synchronized = False

    # ------------------------------------------------------------- helpers

    def _bit_pattern(self, la: int, j: int) -> LineData:
        return ALL1 if (la >> j) & 1 else ALL0

    def _label_sweep(self, bit: Optional[int]) -> None:
        """Step 1 / step 3: label every line with its LA's bit (or ALL-0)."""
        for la in range(self.n_lines):
            data = ALL0 if bit is None else self._bit_pattern(la, bit)
            # reprolint: disable=REP002 labeling write; latency unused
            self.oracle.write(la, data)
            self.mirror.count_write()

    # ---------------------------------------------------------- phase A

    def synchronize(self, max_rounds: int = 3) -> None:
        """Steps 1-2: observe LA 0's round-start swap (the 1375 ns marker).

        Validates the boot-counted mirror: the marker must land exactly on
        a mirrored round boundary, otherwise the attack aborts.
        """
        start_writes = self.oracle.user_writes
        self._label_sweep(None)
        budget = max_rounds * self.n_lines * self.remap_interval
        for _ in range(budget):
            extra = self.oracle.write(0, ALL1)
            step = self.mirror.count_write()
            if self.oracle.matches(extra, self.oracle.swap_01):
                if step is None or step.la != 0:
                    raise RuntimeError(
                        "LA 0 swap observed off the mirrored round boundary"
                    )
                self.synchronized = True
                self.detection_writes += self.oracle.user_writes - start_writes
                return
        raise RuntimeError(
            "synchronization failed (keys may have matched for several rounds)"
        )

    # ---------------------------------------------------------- phase B

    def detect_key_xor(self) -> int:
        """Steps 3-5: recover the full ``keyc XOR keyp`` of the current round.

        Must be called early in a round — it needs one observable swap per
        address bit before the round ends.
        """
        if not self.synchronized:
            self.synchronize()
        start_writes = self.oracle.user_writes
        key_xor = 0
        for j in range(self.n_bits):
            self._label_sweep(j)
            bit = self._observe_bit()
            key_xor |= bit << j
        self.detection_writes += self.oracle.user_writes - start_writes
        return key_xor

    def _observe_bit(self) -> int:
        """Step 4: hammer LA 0 until one swap leaks the labelled bit."""
        budget = 2 * self.n_lines * self.remap_interval
        for _ in range(budget):
            extra = self.oracle.write(0, ALL0)
            self.mirror.count_write()
            if extra <= self.oracle.tolerance_ns:
                continue  # no swap on this step (pair already handled)
            if self.oracle.matches(extra, self.oracle.swap_01):
                return 1
            if self.oracle.matches(extra, self.oracle.swap_00) or self.oracle.matches(
                extra, self.oracle.swap_11
            ):
                return 0
            raise RuntimeError(f"unclassifiable swap latency {extra:.1f} ns")
        raise RuntimeError("no swap observed (keyc == keyp this round?)")

    # ---------------------------------------------------------- phase C

    def wear_out(self, max_writes: int = 100_000_000) -> AttackResult:
        """Pin writes on one physical slot, following its resident line.

        The resident of the target slot flips to its pair when the CRP
        passes ``min(resident, pair)``; the key XOR is re-detected after
        each round boundary (keys rotate there).
        """
        key_xor = self.detect_key_xor()
        holder = self.target_la
        holder, _ = self._catch_up_holder(holder, key_xor)
        writes = 0
        try:
            while writes < max_writes:
                # reprolint: disable=REP002 hammering write; timing unused
                self.oracle.write(holder, ALL1)
                writes += 1
                step = self.mirror.count_write()
                if step is None:
                    continue
                if step.round_started:
                    # Keys rotated: re-detect, then account for any swap of
                    # the holder that fired while we were detecting.
                    key_xor = self.detect_key_xor()
                    holder, _ = self._catch_up_holder(holder, key_xor)
                elif key_xor != 0 and step.la == min(holder, holder ^ key_xor):
                    holder ^= key_xor  # our slot's data was just swapped
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

    def _catch_up_holder(self, holder: int, key_xor: int) -> Tuple[int, bool]:
        """If the CRP already passed the holder's swap point, follow it."""
        if key_xor != 0 and self.mirror.crp > min(holder, holder ^ key_xor):
            return holder ^ key_xor, True
        return holder, False

    # ------------------------------------------------------------- driver

    def run(self, max_writes: int = 100_000_000) -> AttackResult:
        """Full attack: synchronize, then track-and-hammer until failure."""
        self.synchronize()
        return self.wear_out(max_writes=max_writes)
