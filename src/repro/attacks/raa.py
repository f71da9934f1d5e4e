"""Repeated Address Attack: hammer one logical address (Section II-B)."""

from __future__ import annotations

from repro.attacks.base import AttackResult
from repro.pcm.timing import ALL1, LineData
from repro.sim.engine import run_trace_fast
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController


class RepeatedAddressAttack:
    """Write a single logical address until the device fails.

    Needs no knowledge whatsoever; defeats the no-wear-leveling baseline in
    ``endurance`` writes, and any scheme whose Line Vulnerability Factor is
    too large.
    """

    name = "RAA"

    def __init__(
        self,
        controller: MemoryController,
        target_la: int = 0,
        data: LineData = ALL1,
    ):
        self.controller = controller
        self.target_la = target_la
        self.data = data

    def run(self, max_writes: int = 100_000_000) -> AttackResult:
        """Hammer the target until a line fails or the budget runs out.

        RAA never reads a latency, so it runs on the chunk engine as an
        ``raa`` trace: bit-identical to one ``write`` per write.
        """
        spec = TraceSpec(
            kind="raa",
            n_lines=self.controller.config.n_lines,
            data=self.data,
            target=self.target_la,
        )
        result = run_trace_fast(self.controller, spec, max_writes=max_writes)
        return AttackResult(
            attack=self.name,
            user_writes=result.user_writes,
            elapsed_ns=result.elapsed_ns,
            failed=result.failed,
            failed_pa=result.failed_pa,
        )
