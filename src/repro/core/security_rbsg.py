"""Security Region-Based Start-Gap — the paper's proposed scheme (Section IV).

Two-level, both levels *dynamic*:

* **Outer level** — Security-Level Adjustable Dynamic Mapping: a
  :class:`~repro.core.dynamic_feistel.DynamicFeistelMapper` transforms
  LA → IA over the whole bank.  Its keys rotate every remapping round, so
  the Remapping Timing Attack can never finish recovering them; the number
  of Feistel stages is the security knob.  One outer remap movement fires
  every ``outer_interval`` writes to the bank.
* **Inner level** — the IA space is divided into ``n_subregions`` equal
  contiguous sub-regions, each wear-leveled by plain Start-Gap (one region
  of a :class:`~repro.wearlevel.startgap.StartGapBank`); one gap movement per
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

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    CopyMove,
    Move,
    RoundProfile,
    Span,
    SwapMove,
    WearLeveler,
    Window,
    spread_exact,
    walk_windows,
)
from repro.wearlevel.startgap import StartGapBank

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
        if outer_interval < 1:
            raise ValueError("outer_interval must be >= 1")
        self.n_lines = n_lines
        self.n_subregions = n_subregions
        self.subregion_size = n_lines // n_subregions
        self.inner_interval = inner_interval
        self.outer_interval = outer_interval
        self.n_stages = n_stages
        gen = as_generator(rng)
        self.outer = DynamicFeistelMapper(n_lines, n_stages=n_stages, rng=gen)
        self.inners = StartGapBank(n_subregions, self.subregion_size, inner_interval)
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
        return self.inners.translate(*divmod(ia, self.subregion_size))

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
            step = self._outer_step()
            if step is not None:  # None = fixed-point remap: nothing moves
                moves.append(step)
        # Inner level: count the write in the sub-region it lands in
        # (under the post-movement outer mapping).
        region = self.subregion_of_la(la)
        if region >= 0:
            inner_move = self.inners.record_write(region)
            if inner_move is not None:
                moves.append(inner_move)
        return moves

    def _outer_step(self) -> Optional[Move]:
        """One DFN movement, from IA slots to the lines they occupy."""
        step = self.outer.step()
        if isinstance(step, CopyMove):
            return CopyMove(
                src=self._phys_of_ia(step.src), dst=self._phys_of_ia(step.dst)
            )
        if isinstance(step, SwapMove):
            return SwapMove(
                pa_a=self._phys_of_ia(step.pa_a), pa_b=self._phys_of_ia(step.pa_b)
            )
        return None

    # ------------------------------------------------------- batched API

    def _locate(self, las: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sub-region and region-local IA of each write (spare slot: -1)."""
        return self._locate_ias(self.outer.translate_many(las))

    def _locate_ias(self, ias: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        regions, locals_ = np.divmod(ias, self.subregion_size)
        regions[ias == self.outer.spare_slot] = -1
        return regions, locals_

    def _phys_of_located(
        self, regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray:
        pas = self.inners.translate_many(regions, locals_)
        pas[regions < 0] = self._outer_spare_pa
        return pas

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self._phys_of_located(
            *self._locate(np.asarray(las, dtype=np.int64))
        )

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """One window per span: the DFN pre-stepped at every outer trigger
        to the chunk's end or to the next key rotation.

        A key rotation only ever runs at a span's first write, so inside a
        span a line's IA is its encryption under ``Kc`` or ``Kp``, picked
        by its ``isRemap`` bit plus the parked and displaced patches, all
        as of the write's epoch (:meth:`DynamicFeistelMapper.select`).
        The rest of the chunk is thus encrypted once per key pair (a
        rotation makes the old ``Kc`` pass the new ``Kp`` pass).  Writes
        landing on the outer spare slot advance no inner counter — exactly
        as :meth:`record_write` skips them — so they carry region -1
        through :func:`~repro.wearlevel.base.walk_windows`.
        """
        mapper = self.outer
        interval = self.outer_interval
        keyed: List = [None, 0, None, None]  # Kc, offset, under Kc, under Kp

        def span(lo: int) -> Span:
            rest = las[lo:]
            first = interval - 1 - self.outer_write_count % interval
            due = range(first, rest.size, interval)
            steps = mapper.step_span(len(due), rotate=first == 0)
            end = rest.size if steps.taken == len(due) else due[steps.taken]
            feistel, off, under_c, under_p = keyed
            if feistel is not mapper.feistel_c:  # chunk start or key rotation
                if mapper.feistel_p is feistel:
                    under_p = under_c[lo - off :]
                under_c = mapper.feistel_c.encrypt(rest).astype(np.int64)
                if mapper.feistel_p is mapper.feistel_c:
                    under_p = under_c
                elif mapper.feistel_p is not feistel:
                    under_p = mapper.feistel_p.encrypt(rest).astype(np.int64)
                off = lo
                keyed[:] = [mapper.feistel_c, off, under_c, under_p]
            window = slice(lo - off, lo - off + end)
            at = np.arange(first, end, interval)
            epoch = np.cumsum(np.bincount(at, minlength=end))  # steps at <= i
            regions, locals_ = self._locate_ias(
                mapper.select(rest[:end], under_c[window], under_p[window], epoch)
            )

            def commit(k: int) -> None:
                mapper.end_span(len(range(first, k, interval)))
                self.outer_write_count += k

            ends = self._locate_ias(steps.slots.ravel())
            return Span(regions, locals_, at[steps.index], steps.swap, ends, commit)

        lead = self.outer_write_count % interval == interval - 1
        return walk_windows(
            self.inners, int(las.size), span, lead, spare_pa=self._outer_spare_pa
        )

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
        data_slots = self.n_subregions * self._region_stride
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
        inner_movements = self.inners.pending(region_writes)
        counts[:data_slots] += self.inners.movement_wear(inner_movements)
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += (
            move_frac * t_out * timing.swap_latency(spec.data, spec.data)
        )
        elapsed += int(inner_movements.sum()) * timing.copy_latency(spec.data)
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
        self.inners.advance(region_writes)
        return profile.elapsed_ns
