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

import numpy as np

from repro.core.feistel import FeistelNetwork
from repro.core.randomizer import RandomInvertibleMatrix
from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.startgap import StartGap


class RegionBasedStartGap(StartGap):
    """RBSG with a configurable static randomizer.

    Start-Gap's regions and scheme methods, behind :meth:`randomize`.

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
        self._init_regions(n_lines, n_regions, remap_interval)

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

    def randomize_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized static LA → IA mapping."""
        if self._randomizer is None:
            return np.asarray(las, dtype=np.int64)
        out = self._randomizer.encrypt(np.asarray(las, dtype=np.uint64))
        return np.asarray(out).astype(np.int64)

    def region_of(self, ia: int) -> int:
        """Region index a given IA falls into."""
        return ia // self.region_size

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
