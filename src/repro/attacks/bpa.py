"""Birthday Paradox Attack (Seznec 2009; paper Section II-B).

Pick logical addresses at random; hammer each one until the wear-leveling
scheme moves it away (approximated by a fixed per-address dwell budget),
then pick another.  By the birthday paradox, some physical line is revisited
often enough to accumulate wear far faster than uniform traffic would
suggest — the reason a scheme's Line Vulnerability Factor must be "dozen
times less than the endurance".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import AttackResult
from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL1, LineData
from repro.sim.memory_system import MemoryController
from repro.util.rng import SeedLike, as_generator


class BirthdayParadoxAttack:
    """Random-address hammering with a per-address dwell."""

    name = "BPA"

    def __init__(
        self,
        controller: MemoryController,
        dwell_writes: Optional[int] = None,
        data: LineData = ALL1,
        rng: SeedLike = None,
    ):
        """``dwell_writes`` defaults to a Start-Gap-style Line Vulnerability
        Factor estimate: enough writes that the scheme's region bank has
        moved the line once (``n_lines`` writes if the scheme has no
        bank)."""
        self.controller = controller
        self.data = data
        self._rng = as_generator(rng)
        if dwell_writes is None:
            dwell_writes = self._default_dwell()
        if dwell_writes < 1:
            raise ValueError("dwell_writes must be >= 1")
        self.dwell_writes = dwell_writes

    def _default_dwell(self) -> int:
        """One rotation of the scheme's inner region bank, the longest a
        line can stay put: ``size * remap_interval`` of ``inners`` if the
        scheme has them, else of ``regions``; ``n_lines`` without a bank."""
        scheme = self.controller.scheme
        bank = getattr(scheme, "inners", None) or getattr(scheme, "regions", None)
        if bank is None:
            return max(1, scheme.n_lines)
        return max(1, bank.size * bank.remap_interval)

    def run(self, max_writes: int = 100_000_000) -> AttackResult:
        """Hammer random addresses until a line fails or the budget ends.

        Each dwell burst is one ``write_chunk``: bit-identical to one
        ``write`` per write, with the same RNG draws.
        """
        n_lines = self.controller.scheme.n_lines
        datas = np.full(self.dwell_writes, int(self.data), dtype=np.int8)
        writes = 0
        try:
            while writes < max_writes:
                target = int(self._rng.integers(0, n_lines))
                burst = min(self.dwell_writes, max_writes - writes)
                las = np.full(burst, target, dtype=np.int64)
                _ = self.controller.write_chunk(las, datas[:burst])
                writes += burst
        except LineFailure as failure:
            assert failure.chunk_index is not None
            return AttackResult(
                attack=self.name,
                user_writes=writes + failure.chunk_index + 1,
                elapsed_ns=self.controller.elapsed_ns,
                failed=True,
                failed_pa=failure.pa,
            )
        return AttackResult(
            attack=self.name,
            user_writes=writes,
            elapsed_ns=self.controller.elapsed_ns,
            failed=False,
        )
