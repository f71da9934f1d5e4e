"""Two-level (hierarchical) Security Refresh (paper Section III-C/E).

The outer SR region spans the whole LA space and remaps LA → IA; the IA
space is then divided into equal-size contiguous sub-regions, each managed
by an inner SR region translating IA → PA within the sub-region.  "Both
levels apply the SR scheme, but are transparent and independent to each
other":

* the outer write counter counts *all* writes to the bank
  (``outer_interval`` per remap),
* each inner write counter counts writes landing *in that sub-region*
  (``inner_interval`` per remap).

An outer remap swaps two IAs; physically this swaps the lines the two IAs
currently occupy *through* the inner mapping.  An inner remap swaps two
slots inside one sub-region.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    Move,
    RoundProfile,
    Span,
    SwapMove,
    WearLeveler,
    Window,
    spread_exact,
    walk_windows,
)
from repro.wearlevel.security_refresh import SRBank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec


class TwoLevelSecurityRefresh(WearLeveler):
    """Hierarchical Security Refresh.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_subregions:
        Number of inner SR sub-regions; must divide ``n_lines`` with a
        power-of-two quotient.
    inner_interval / outer_interval:
        Remapping intervals of the two levels (the paper's suggested
        configuration is 512 sub-regions, inner 64, outer 128).
    """

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        inner_interval: int = 64,
        outer_interval: int = 128,
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
        bit_length_exact(self.subregion_size)  # validates power of two
        gen = as_generator(rng)
        self.outer = SRBank(1, n_lines, outer_interval, gen)
        self.inners = SRBank(n_subregions, self.subregion_size, inner_interval, gen)

    # ------------------------------------------------------------- mapping

    def subregion_of(self, ia: int) -> int:
        """Sub-region index of an intermediate address."""
        return ia // self.subregion_size

    def _subregion_of_la(self, la: int) -> int:
        """Sub-region a line currently lives in."""
        return self.subregion_of(self.outer.translate(0, la))

    def _phys_of_ia(self, ia: int) -> int:
        return self.inners.translate(*divmod(ia, self.subregion_size))

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self._phys_of_ia(self.outer.translate(0, la))

    # -------------------------------------------------------------- writes

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        moves: List[Move] = []
        # Outer level counts every write to the bank; its swap exchanges
        # two IAs, i.e. the lines they occupy through the inner mapping.
        outer_swap = self._outer_move(self.outer.record_write(0))
        if outer_swap is not None:
            moves.append(outer_swap)
        # Inner level counts writes landing in the target sub-region
        # (computed under the post-outer-remap mapping).
        inner_swap = self.inners.record_write(self._subregion_of_la(la))
        if inner_swap is not None:
            moves.append(inner_swap)
        return moves

    def _outer_move(self, swap: Optional[SwapMove]) -> Optional[SwapMove]:
        """An outer swap of two IAs as the swap of the lines they occupy."""
        if swap is None:
            return None
        pa_a = self._phys_of_ia(swap.pa_a)
        pa_b = self._phys_of_ia(swap.pa_b)
        return None if pa_a == pa_b else SwapMove(pa_a=pa_a, pa_b=pa_b)

    # ------------------------------------------------------- batched API

    def _locate(self, las: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sub-region and region-local IA of each write."""
        return np.divmod(self.outer.translate_many(0, las), self.subregion_size)

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.inners.translate_many(
            *self._locate(np.asarray(las, dtype=np.int64))
        )

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """One window per span of the outer SR bank's closed-form window.

        The outer bank, one region that counts every write, locates each
        write under the outer mapping after its own trigger; its window
        covers any number of triggers, ends right after a key-completing
        one and draws that key at commit, which runs before the inner
        commit, as on the scalar path.
        """
        size = self.subregion_size

        def span(lo: int) -> Span:
            rest = las[lo:]
            outer = self.outer.window(np.zeros(rest.size, dtype=np.int64), rest)
            at, swap, a, b = outer.moves
            regions, locals_ = np.divmod(outer.pas, size)
            ends = np.divmod(np.concatenate((a, b)), size)
            return Span(regions, locals_, at, swap, ends, outer.commit)

        lead = int(self.outer.remaining()[0]) == 1
        return walk_windows(self.inners, int(las.size), span, lead)

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Hierarchical SR: outer XOR over the bank, inner XOR per region.

        Both levels are XOR bijections, so uniform and sequential traffic
        cover the physical space evenly; the inner region shares under
        zipf come from a snapshot of the outer mapping, with ``writes``
        clipped to one outer key round.  Swap wear at both levels is two
        line writes per actual swap, half the triggers in expectation.
        RAA is declined.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        n = self.n_lines
        size = self.subregion_size
        if spec.kind == "zipf":
            writes = min(writes, n * self.outer.remap_interval)
        outer_swaps = self.outer.expected_swaps(writes)
        rates = self.outer.movement_wear(outer_swaps)
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.outer.translate_many(0, np.arange(n, dtype=np.int64))
            region_q = np.bincount(
                ias // size, weights=weights, minlength=self.n_subregions
            )
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
        region_writes = spread_exact(region_q * writes, writes)
        inner_swaps = self.inners.expected_swaps(region_writes)
        rates += self.inners.movement_wear(inner_swaps)
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += writes / n
        elif spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            user = np.zeros(n)
            np.add.at(
                user,
                self.translate_many(np.arange(n, dtype=np.int64)),
                weights,
            )
            rates += user * writes
        else:  # sequential: deterministic even coverage through both XORs
            counts = spread_exact(np.full(n, writes / n), writes)
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += (
            float(outer_swaps[0]) + float(inner_swaps.sum())
        ) * timing.swap_latency(spec.data, spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={"region_writes": region_writes},
        )

    def apply_round(self, profile: RoundProfile) -> float:
        self.outer.advance(profile.writes)
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        self.inners.advance(region_writes)
        return profile.elapsed_ns

    # ------------------------------------------------------------- oracles

    @property
    def outer_key_xor(self) -> int:
        """Ground truth outer ``keyc XOR keyp`` (RTA recovery target)."""
        return self.outer.keyc.item(0) ^ self.outer.keyp.item(0)

    def inner_key_xor(self, region: int) -> int:
        """Ground truth inner ``keyc XOR keyp`` of one sub-region."""
        return self.inners.keyc.item(region) ^ self.inners.keyp.item(region)
