"""Multi-Way Security Refresh (Yu & Du, IEEE TC 2014; paper Section III-E).

The paper characterises the scheme family this way: the memory space is
divided into many sub-regions *by the address sequence* (contiguous LA
ranges) and wear leveling runs independently inside each sub-region.  Our
implementation gives each contiguous LA range its own one-level SR region.

This family inherits the vulnerability discussed in Section III-E: once the
attacker locates a sub-region (free — the split is by address sequence, so
the high LA bits name the sub-region directly), it takes at most
``(2N/R) * log2(R)`` writes to track its remapping, after which the whole
sub-region can be worn out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike
from repro.wearlevel.base import (
    Move,
    RoundProfile,
    WearLeveler,
    Window,
    spread_even,
    spread_exact,
    static_span,
    walk_windows,
)
from repro.wearlevel.security_refresh import SRBank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec


class MultiWaySR(WearLeveler):
    """Independent per-sub-region Security Refresh over contiguous LA ranges."""

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        remap_interval: int = 64,
        rng: SeedLike = None,
    ):
        if n_subregions < 1 or n_lines % n_subregions != 0:
            raise ValueError(
                f"n_subregions ({n_subregions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self.n_physical = n_lines
        self.n_subregions = n_subregions
        self.subregion_size = n_lines // n_subregions
        bit_length_exact(self.subregion_size)  # must be a power of two
        self.regions = SRBank(n_subregions, self.subregion_size, remap_interval, rng)

    def subregion_of(self, la: int) -> int:
        """Sub-region index — directly the high bits of the logical address."""
        return la // self.subregion_size

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self.regions.translate(*divmod(la, self.subregion_size))

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        swap = self.regions.record_write(self.subregion_of(la))
        return [] if swap is None else [swap]

    # ------------------------------------------------------- batched API

    def _locate(self, las: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sub-region and region-local address of each write."""
        return np.divmod(las, self.subregion_size)

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.regions.translate_many(
            *self._locate(np.asarray(las, dtype=np.int64))
        )

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """No outer level: the chunk is located once, and a window ends
        only at a sub-region's key draw."""
        regions, locals_ = self._locate(las)
        return walk_windows(
            self.regions, int(las.size), static_span(regions, locals_)
        )

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Independent SR rounds per contiguous LA range.

        Region shares come straight off the trace distribution (the split
        is by address sequence — high LA bits), deterministically
        discretized so the per-region counters advance exactly.  Zipf
        clips ``writes`` so the hottest region completes at most one key
        round, keeping its mapping snapshot valid; RAA is declined.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        size = self.subregion_size
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            region_q = weights.reshape(self.n_subregions, size).sum(axis=1)
            rotation = size * self.regions.remap_interval
            writes = min(writes, int(rotation / max(float(region_q.max()), 1e-12)))
            if writes <= 0:
                return None
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
        region_writes = spread_exact(region_q * writes, writes)
        swaps = self.regions.expected_swaps(region_writes)
        rates = self.regions.movement_wear(swaps)
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += np.repeat(region_writes / size, size)
        elif spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            user = np.zeros(self.n_physical)
            np.add.at(
                user,
                self.translate_many(np.arange(self.n_lines, dtype=np.int64)),
                weights,
            )
            rates += user * writes
        else:  # sequential: deterministic even coverage per region
            counts = spread_even(region_writes, size)
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += float(swaps.sum()) * timing.swap_latency(spec.data, spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={"region_writes": region_writes},
        )

    def apply_round(self, profile: RoundProfile) -> float:
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        self.regions.advance(region_writes)
        return profile.elapsed_ns
