"""Security Region-Based Start-Gap — the paper's proposed scheme (Section IV).

Two-level, both levels *dynamic*:

* **Outer level** — Security-Level Adjustable Dynamic Mapping: a
  :class:`~repro.core.dynamic_feistel.DynamicFeistelMapper` transforms
  LA → IA over the whole bank.  Its keys rotate every remapping round, so
  the Remapping Timing Attack can never finish recovering them; the number
  of Feistel stages is the security knob.  One outer remap movement fires
  every ``outer_interval`` writes to the bank.
* **Inner level** — the IA space is divided into ``n_subregions`` equal
  contiguous sub-regions, each wear-leveled by plain Start-Gap
  (:class:`~repro.wearlevel.startgap.StartGapRegion`); one gap movement per
  ``inner_interval`` writes to the sub-region.  Start-Gap is cheap and its
  weak (sequential) remapping rule is harmless here because the outer level
  already randomizes which IA an attacker can reach.

Physical layout: sub-region ``r`` owns ``subregion_size + 1`` physical lines
(its gap line included); one extra physical line at the very end backs the
outer level's spare slot.  Total: ``n_lines + n_subregions + 1`` lines.
(The paper's overhead accounting says the outer and per-sub-region extra
lines total "(S+1) x 256 byte"; the count is actually one per sub-region
plus one for the outer level, i.e. ``R + 1`` lines — an apparent typo we
document here and in :mod:`repro.analysis.overhead`.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    CopyMove,
    Move,
    RoundProfile,
    SwapMove,
    WearLeveler,
    grouped_cumcount,
    spread_exact,
)
from repro.wearlevel.startgap import StartGapRegion, gap_walk_wear

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec


class SecurityRBSG(WearLeveler):
    """Security RBSG: dynamic-Feistel outer level + Start-Gap inner level.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_subregions:
        Inner Start-Gap sub-regions; must divide ``n_lines``.
    inner_interval:
        Writes to a sub-region per inner gap movement.
    outer_interval:
        Writes to the bank per outer DFN movement.
    n_stages:
        Feistel stages of the outer DFN (the security level).
    """

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        inner_interval: int = 64,
        outer_interval: int = 128,
        n_stages: int = 7,
        rng: SeedLike = None,
    ):
        if n_subregions < 1 or n_lines % n_subregions != 0:
            raise ValueError(
                f"n_subregions ({n_subregions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self.n_subregions = n_subregions
        self.subregion_size = n_lines // n_subregions
        self.inner_interval = inner_interval
        self.outer_interval = outer_interval
        self.n_stages = n_stages
        gen = as_generator(rng)
        self.outer = DynamicFeistelMapper(n_lines, n_stages=n_stages, rng=gen)
        self.inners = [
            StartGapRegion(self.subregion_size, inner_interval)
            for _ in range(n_subregions)
        ]
        # Layout: R regions of (size+1) slots, then the outer spare line.
        self._region_stride = self.subregion_size + 1
        self._outer_spare_pa = n_subregions * self._region_stride
        self.n_physical = n_lines + n_subregions + 1
        self.outer_write_count = 0

    # ------------------------------------------------------------- mapping

    def _phys_of_ia(self, ia: int) -> int:
        """IA slot (0..N, N = outer spare) to physical line."""
        if ia == self.outer.spare_slot:
            return self._outer_spare_pa
        region = ia // self.subregion_size
        local = ia % self.subregion_size
        return region * self._region_stride + self.inners[region].translate(local)

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self._phys_of_ia(self.outer.translate(la))

    def subregion_of_la(self, la: int) -> int:
        """Sub-region the line currently lives in (spare maps to -1)."""
        ia = self.outer.translate(la)
        if ia == self.outer.spare_slot:
            return -1
        return ia // self.subregion_size

    # -------------------------------------------------------------- writes

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        moves: List[Move] = []
        # Outer level: one DFN movement per outer_interval bank writes.
        self.outer_write_count += 1
        if self.outer_write_count % self.outer_interval == 0:
            step = self.outer.step()
            if isinstance(step, CopyMove):
                moves.append(
                    CopyMove(
                        src=self._phys_of_ia(step.src),
                        dst=self._phys_of_ia(step.dst),
                    )
                )
            elif isinstance(step, SwapMove):
                moves.append(
                    SwapMove(
                        pa_a=self._phys_of_ia(step.pa_a),
                        pa_b=self._phys_of_ia(step.pa_b),
                    )
                )
            # None = fixed-point remap: no data movement needed.
        # Inner level: count the write in the sub-region it lands in
        # (under the post-movement outer mapping).
        ia = self.outer.translate(la)
        if ia != self.outer.spare_slot:
            region = ia // self.subregion_size
            inner_move = self.inners[region].record_write()
            if inner_move is not None:
                base = region * self._region_stride
                src, dst = inner_move
                moves.append(CopyMove(src=base + src, dst=base + dst))
        return moves

    # ------------------------------------------------------- batched API

    def _phys_of_ias(self, ias: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_phys_of_ia` (spare slot handled by patch)."""
        spare = ias == self.outer.spare_slot
        regions = np.where(spare, 0, ias // self.subregion_size)
        starts = np.fromiter(
            (r.start for r in self.inners),
            dtype=np.int64,
            count=self.n_subregions,
        )
        gaps = np.fromiter(
            (r.gap for r in self.inners),
            dtype=np.int64,
            count=self.n_subregions,
        )
        local = (ias % self.subregion_size + starts[regions]) % self.subregion_size
        local += local >= gaps[regions]
        pas = regions * self._region_stride + local
        pas[spare] = self._outer_spare_pa
        return pas

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self._phys_of_ias(
            self.outer.translate_many(np.asarray(las, dtype=np.int64))
        )

    def writes_until_next_remap(self) -> int:
        outer_rem = self.outer_interval - (
            self.outer_write_count % self.outer_interval
        )
        inner_min = min(r.writes_until_next_movement for r in self.inners)
        return min(outer_rem, inner_min)

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """Exact split: global outer counter, per-sub-region inner counters.

        Writes landing on the outer spare slot advance no inner counter —
        exactly as :meth:`record_write` skips them — so they are excluded
        from the grouped occurrence count.
        """
        if las.size == 0:
            return np.empty(0, dtype=np.int64), 0
        outer_rem = self.outer_interval - (
            self.outer_write_count % self.outer_interval
        )
        limit = min(int(las.size), outer_rem - 1)
        if limit <= 0:
            return np.empty(0, dtype=np.int64), 0
        remaining = np.fromiter(
            (r.writes_until_next_movement for r in self.inners),
            dtype=np.int64,
            count=self.n_subregions,
        )
        # Trigger right at index 0 (the call after an inner remap) needs
        # no scan: one scalar DFN translate tells whether the first write
        # hits a region whose counter is about to fire (spare-slot writes
        # never do).
        first_ia = self.outer.translate(int(las[0]))
        if (first_ia != self.outer.spare_slot
                and remaining[first_ia // self.subregion_size] <= 1):
            return np.empty(0, dtype=np.int64), 0
        # Inner scan-window cap (same rationale as RBSG's consume_chunk);
        # spare-slot writes hit no inner counter, so the bound stays safe
        # (they only stretch the run, never trigger inside it).
        limit = min(limit, max(int(remaining.sum()), 1))
        las = np.asarray(las[:limit], dtype=np.int64)
        ias = self.outer.translate_many(las)
        spare = ias == self.outer.spare_slot
        # Spare-slot writes get group -1: they keep their position in the
        # chunk but never match a region's remaining count.
        regions = np.where(spare, -1, ias // self.subregion_size)
        occ = grouped_cumcount(regions)
        hits = (occ + 1 >= remaining[np.where(spare, 0, regions)]) & ~spare
        trigger = np.nonzero(hits)[0]
        n = int(trigger[0]) if trigger.size else limit
        if n == 0:
            return np.empty(0, dtype=np.int64), 0
        pas = self._phys_of_ias(ias[:n])
        self.outer_write_count += n
        inner_regions = regions[:n][~spare[:n]]
        counts = np.bincount(inner_regions, minlength=self.n_subregions)
        for r in np.nonzero(counts)[0]:
            self.inners[int(r)].write_count += int(counts[r])
        return pas, n

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Analytic Security-RBSG round: DFN key rotations + inner gap walks.

        The dynamic outer randomizer re-keys every round, so user wear is
        fully smoothed over the physical space under uniform/sequential
        traffic; zipf clips ``writes`` to roughly one outer round and
        snapshots the current mapping.  Outer movement wear is ~2 line
        writes per non-fixed-point trigger (swap chains write the pivot
        and the target), with the fixed-point fraction measured on the
        current key pair (:meth:`DynamicFeistelMapper.
        fixed_point_fraction`).  The boot pair is the exception: there
        ``Kc`` and ``Kp`` are one network, which fixes every line, while
        each round modelled draws a fresh pair, which fixes almost none,
        so a commit from boot counts every trigger as a movement.  The
        spare line takes one park write per completed round.  Inner
        Start-Gap movement wear is the exact gap walk per sub-region.  RAA
        is declined — the chunk engine and :mod:`repro.sim.roundsim` own
        that regime.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        n = self.n_lines
        stride = self._region_stride
        if spec.kind == "zipf":
            writes = min(writes, n * self.outer_interval)
        interval = self.outer_interval
        t_out = (self.outer_write_count + writes) // interval - (
            self.outer_write_count // interval
        )
        rounds = t_out // n
        if self.outer.feistel_c is self.outer.feistel_p:  # boot pair
            move_frac = 1.0
        else:
            move_frac = 1.0 - self.outer.fixed_point_fraction()
        rates = np.zeros(self.n_physical)
        counts = np.zeros(self.n_physical, dtype=np.int64)
        data_slots = self.n_subregions * stride
        rates[:data_slots] += 2.0 * move_frac * t_out / data_slots
        counts[self._outer_spare_pa] += rounds
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.outer.translate_many(np.arange(n, dtype=np.int64))
            spare = ias == self.outer.spare_slot
            region_q = np.bincount(
                np.where(spare, 0, ias // self.subregion_size),
                weights=np.where(spare, 0.0, weights),
                minlength=self.n_subregions,
            )
            total_q = float(region_q.sum())
            if total_q > 0:
                region_q = region_q / total_q
            user = np.zeros(self.n_physical)
            np.add.at(
                user,
                self.translate_many(np.arange(n, dtype=np.int64)),
                weights,
            )
            rates += user * writes
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
            if spec.kind == "uniform":
                rates += writes / self.n_physical
            else:  # sequential: deterministic aggregate, DFN-smoothed
                counts += spread_exact(
                    np.full(self.n_physical, writes / self.n_physical), writes
                )
        region_writes = spread_exact(region_q * writes, writes)
        inner_movements = 0
        for index, region in enumerate(self.inners):
            movements = region.pending_movements(int(region_writes[index]))
            inner_movements += movements
            base = index * stride
            counts[base : base + stride] += gap_walk_wear(
                stride, region.gap, movements
            )
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += (
            move_frac * t_out * timing.swap_latency(spec.data, spec.data)
        )
        elapsed += inner_movements * timing.copy_latency(spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={
                "rounds": rounds,
                "triggers": t_out,
                "region_writes": region_writes,
            },
        )

    def apply_round(self, profile: RoundProfile) -> float:
        self.outer_write_count += profile.writes
        rounds = profile.meta["rounds"]
        triggers = profile.meta["triggers"]
        assert isinstance(rounds, int) and isinstance(triggers, int)
        self.outer.advance_rounds(rounds)
        self.outer.total_movements += triggers
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        for region, w_r in zip(self.inners, region_writes):
            movements = region.pending_movements(int(w_r))
            region.write_count += int(w_r)
            region.advance_movements(movements)
        return profile.elapsed_ns

    # ------------------------------------------------------------- queries

    @property
    def dfn_round_count(self) -> int:
        """Completed + in-progress outer remapping rounds so far."""
        return self.outer.round_count
