"""Region-Based Start-Gap (RBSG) — the paper's first attack target.

Architecture (Section III-A):

1. a *static* randomizer (Feistel network or random invertible binary
   matrix) maps LA → IA once at boot and never changes;
2. the IA space is cut into ``n_regions`` contiguous, equal-size regions;
3. each region runs its own Start-Gap engine (own gap line, own ``start`` /
   ``gap`` registers, own write counter).

The static randomizer kills spatial locality — but because it is fixed, the
*relative* physical adjacency of two IAs never changes, which is exactly the
invariant the Remapping Timing Attack exploits (``L_{i-1}`` stays physically
adjacent to ``L_i`` forever).

Physical layout: region ``r`` occupies slots
``[r * (region_size + 1), (r+1) * (region_size + 1))`` — region_size data
slots plus one gap slot each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.feistel import FeistelNetwork
from repro.core.randomizer import RandomInvertibleMatrix
from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
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
from repro.wearlevel.startgap import StartGapBank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec


class RegionBasedStartGap(WearLeveler):
    """RBSG with a configurable static randomizer.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_regions:
        Number of equal-size regions in IA space; must divide ``n_lines``.
    remap_interval:
        Gap movement fires every this many writes *to a region*.
    randomizer:
        ``"feistel"`` (3-stage static Feistel network, the RBSG default),
        ``"matrix"`` (random invertible binary matrix) or ``"identity"``
        (no randomization; useful for tests and worked examples).
    rng:
        Seed / generator for the randomizer keys.
    """

    def __init__(
        self,
        n_lines: int,
        n_regions: int = 32,
        remap_interval: int = 100,
        randomizer: str = "feistel",
        feistel_stages: int = 3,
        rng: SeedLike = None,
    ):
        if n_regions < 1 or n_lines % n_regions != 0:
            raise ValueError(
                f"n_regions ({n_regions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self.n_regions = n_regions
        self.region_size = n_lines // n_regions
        self.remap_interval = remap_interval
        self.n_physical = n_lines + n_regions  # one gap line per region
        gen = as_generator(rng)
        n_bits = bit_length_exact(n_lines)
        if randomizer == "feistel":
            self._randomizer = FeistelNetwork.random(n_bits, feistel_stages, gen)
        elif randomizer == "matrix":
            self._randomizer = RandomInvertibleMatrix.random(n_bits, gen)
        elif randomizer == "identity":
            self._randomizer = None
        else:
            raise ValueError(f"unknown randomizer {randomizer!r}")
        self.regions = StartGapBank(n_regions, self.region_size, remap_interval)

    # ------------------------------------------------------------- mapping

    def randomize(self, la: int) -> int:
        """Static LA → IA mapping (fixed at boot)."""
        if self._randomizer is None:
            return la
        return int(self._randomizer.encrypt(la))

    def derandomize(self, ia: int) -> int:
        """Inverse IA → LA mapping."""
        if self._randomizer is None:
            return ia
        return int(self._randomizer.decrypt(ia))

    def region_of(self, ia: int) -> int:
        """Region index a given IA falls into."""
        return ia // self.region_size

    def translate(self, la: int) -> int:
        self._check_la(la)
        region, local = divmod(self.randomize(la), self.region_size)
        return self.regions.translate(region, local)

    # -------------------------------------------------------------- writes

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        move = self.regions.record_write(self.randomize(la) // self.region_size)
        return [] if move is None else [move]

    # ------------------------------------------------------- batched API

    def randomize_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized static LA → IA mapping."""
        if self._randomizer is None:
            return np.asarray(las, dtype=np.int64)
        out = self._randomizer.encrypt(np.asarray(las, dtype=np.uint64))
        return np.asarray(out).astype(np.int64)

    def _locate(self, las: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Region and region-local IA of each write."""
        return np.divmod(self.randomize_many(las), self.region_size)

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.regions.translate_many(*self._locate(las))

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """The static randomizer has no trigger: one window per chunk,
        located once."""
        regions, locals_ = self._locate(las)
        return walk_windows(
            self.regions, int(las.size), static_span(regions, locals_)
        )

    # -------------------------------------------------- fast-forward API

    def _region_weights(self, spec: "TraceSpec") -> np.ndarray:
        """Expected fraction of user writes landing in each region."""
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.randomize_many(np.arange(self.n_lines, dtype=np.int64))
            return np.bincount(
                ias // self.region_size,
                weights=weights,
                minlength=self.n_regions,
            )
        # The static randomizer is a bijection: uniform stays uniform and
        # a sequential sweep hits every region exactly region_size times.
        return np.full(self.n_regions, 1.0 / self.n_regions)

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Per-region Start-Gap rounds behind the static randomizer.

        User writes split across regions by the randomized distribution
        weights (deterministically discretized so counters advance
        exactly); each region's movement wear is its exact gap walk.
        Zipf snapshots the full mapping and clips ``writes`` so the
        hottest region completes at most one rotation; RAA is declined
        (chunk engine / roundsim territory), like Start-Gap.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        stride = self.region_size + 1
        region_q = self._region_weights(spec)
        if spec.kind == "zipf":
            rotation = stride * self.remap_interval
            writes = min(writes, int(rotation / max(float(region_q.max()), 1e-12)))
            if writes <= 0:
                return None
        region_writes = spread_exact(region_q * writes, writes)
        movements = self.regions.pending(region_writes)
        counts = self.regions.movement_wear(movements)
        rates: Optional[np.ndarray] = None
        exact = False
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            rates = np.zeros(self.n_physical)
            np.add.at(
                rates,
                self.translate_many(np.arange(self.n_lines, dtype=np.int64)),
                weights,
            )
            rates *= writes
        elif spec.kind == "uniform":
            rates = np.repeat(region_writes / stride, stride)
        else:  # sequential: deterministic, rotation-smoothed per region
            counts += spread_even(region_writes, stride)
            exact = True
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += int(movements.sum()) * timing.copy_latency(spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            exact=exact,
            meta={"region_writes": region_writes},
        )

    def apply_round(self, profile: RoundProfile) -> float:
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        self.regions.advance(region_writes)
        return profile.elapsed_ns

    # ------------------------------------------------------------- queries

    def physically_previous_la(self, la: int) -> int:
        """Ground-truth ``L_{i-1} = f^{-1}(f(L_i) - 1)`` within the region.

        This is the invariant the RTA detects through the side channel alone;
        exposed here as the oracle for validating attack implementations.
        The "previous" address wraps within the region's IA range.
        """
        ia = self.randomize(la)
        region = self.region_of(ia)
        base_ia = region * self.region_size
        prev_ia = base_ia + (ia - base_ia - 1) % self.region_size
        return self.derandomize(prev_ia)
