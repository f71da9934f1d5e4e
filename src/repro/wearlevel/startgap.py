"""Start-Gap wear leveling (Qureshi et al., MICRO 2009; paper Section III-A).

A region of ``n`` data lines owns ``n + 1`` physical slots; the extra slot is
the *GapLine*.  Two registers drive an algebraic mapping:

* ``start`` — how many full rotations the region has completed,
* ``gap`` — the slot currently left empty.

Mapping: ``pa = (ia + start) mod n``, then ``pa += 1`` if ``pa >= gap``.

Every ``remap_interval`` writes to the region, one *gap movement* copies the
line above the gap into the gap (``[gap-1] → [gap]``) and decrements ``gap``;
when the gap wraps below slot 0 it re-enters at slot ``n`` and ``start``
advances, completing one remapping round exactly as in Fig. 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.wearlevel.base import (
    BankWindow,
    CopyMove,
    Move,
    RoundProfile,
    WearLeveler,
    Window,
    counts_before,
    grouped_cumcount,
    spread_even,
    spread_exact,
    static_span,
    walk_windows,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.fastforward import TraceSpec


class StartGapBank:
    """Start-Gap registers of ``n_regions`` equal regions, one array each.

    ``start``, ``gap``, ``write_count`` and ``total_movements`` are int64
    arrays indexed by region — the per-sub-region register file the paper
    sizes in §V-C3 and :mod:`repro.analysis.overhead` counts.  All regions
    share one ``remap_interval``.  Region ``r`` owns bank slots
    ``r * (size + 1) .. r * (size + 1) + size`` (its ``size`` data slots,
    then its gap line); every slot the bank returns is such a bank slot.
    Used with one region by :class:`StartGap`, and as the region bank of
    Region-Based Start-Gap and of Security RBSG's inner level.
    """

    def __init__(self, n_regions: int, size: int, remap_interval: int):
        if size < 1:
            raise ValueError("region size must be >= 1")
        if remap_interval < 1:
            raise ValueError("remap_interval must be >= 1")
        self.size = size
        self.remap_interval = remap_interval
        self.start = np.zeros(n_regions, dtype=np.int64)
        self.gap = np.full(n_regions, size, dtype=np.int64)  # the spare slot
        self.write_count = np.zeros(n_regions, dtype=np.int64)
        self.total_movements = np.zeros(n_regions, dtype=np.int64)

    # ------------------------------------------------------- scalar path

    def translate(self, r: int, local: int) -> int:
        """Bank slot of region ``r``'s local address ``local``."""
        if not 0 <= local < self.size:
            raise ValueError(f"address {local} outside region [0, {self.size})")
        slot = (local + self.start.item(r)) % self.size
        if slot >= self.gap.item(r):
            slot += 1
        return r * (self.size + 1) + slot

    def record_write(self, r: int) -> Optional[CopyMove]:
        """Count one write to region ``r``; return its gap movement if due."""
        count = self.write_count.item(r) + 1
        self.write_count[r] = count
        if count % self.remap_interval:
            return None
        return self.gap_movement(r)

    def gap_movement(self, r: int) -> CopyMove:
        """Perform one gap movement of region ``r``: copy ``[gap-1] → [gap]``."""
        dst = self.gap.item(r)
        src = (dst - 1) % (self.size + 1)
        self.gap[r] = src
        if src == self.size:  # wrapped: one full round completed
            self.start[r] = (self.start.item(r) + 1) % self.size
        self.total_movements[r] += 1
        base = r * (self.size + 1)
        return CopyMove(src=base + src, dst=base + dst)

    # ------------------------------------------------------- vector path

    def translate_many(self, regions: np.ndarray, locals_: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem)."""
        slots = (locals_ + self.start[regions]) % self.size
        slots += slots >= self.gap[regions]
        return regions * (self.size + 1) + slots

    def window(self, regions: np.ndarray, locals_: np.ndarray) -> BankWindow:
        """A window of writes in closed form (:class:`BankWindow`).

        ``regions``/``locals_`` locate each write (region ``-1``: counted
        by no region; its pa is left for the caller).  Write ``i`` is its
        region's ``occ[i]``-th in the window, so it fires a gap movement
        iff ``(write_count[r] + occ[i] + 1) % remap_interval == 0``, and
        it sees ``T`` movements of its region in total, its own included
        (:meth:`_slots`); a movement copies the slot the gap moves to into
        the one it leaves.  The window is never cut: it holds every write.
        """
        counted = regions >= 0
        interval = self.remap_interval
        # Writes into the region's current interval, this one included
        # (region -1: garbage, masked below).
        into = grouped_cumcount(regions) + (self.write_count % interval + 1)[regions]
        seen, phase = np.divmod(into, interval)
        moved = self.total_movements[regions] + seen
        pas = self._slots(regions, locals_, moved)
        at = np.flatnonzero(counted & (phase == 0))
        slots = self.size + 1
        src = self.size - moved[at] % slots  # the gap after the move
        base = regions[at] * slots
        moves = (at, np.zeros(at.size, dtype=bool), base + src, base + (src + 1) % slots)
        n_regions = self.write_count.size

        def commit(k: int) -> None:
            self.advance(np.bincount(regions[:k][counted[:k]], minlength=n_regions))

        def slots_before(rs: np.ndarray, ls: np.ndarray, ps: np.ndarray) -> np.ndarray:
            moved = self.total_movements[rs] + counts_before(regions, at, rs, ps)
            return self._slots(rs, ls, moved)

        return BankWindow(pas, moves, commit, slots_before)

    def _slots(
        self, regions: np.ndarray, locals_: np.ndarray, moved: np.ndarray
    ) -> np.ndarray:
        """Bank slots of ``(regions, locals_)`` once each region has made
        ``moved`` gap movements: the gap at ``(size - moved) mod (size +
        1)`` and ``start`` at ``moved // (size + 1) mod size``."""
        laps, walked = np.divmod(moved, self.size + 1)
        slot = (locals_ + laps) % self.size
        slot += slot >= self.size - walked
        return regions * (self.size + 1) + slot

    def remaining(self) -> np.ndarray:
        """Writes each region takes until its next gap movement (>= 1)."""
        return self.remap_interval - self.write_count % self.remap_interval

    def pending(self, writes: np.ndarray) -> np.ndarray:
        """Gap movements ``writes[r]`` more writes to region ``r`` trigger."""
        interval = self.remap_interval
        return (self.write_count + writes) // interval - self.write_count // interval

    def advance(self, writes: np.ndarray) -> None:
        """Count ``writes[r]`` writes per region and jump over their movements.

        Closed form of the :meth:`gap_movement` calls they trigger: after
        ``M`` movements from boot the gap sits at ``(n - M) mod (n + 1)``
        and ``start`` has advanced once per full lap of the gap (every
        ``n + 1`` movements).
        """
        total = self.total_movements + self.pending(writes)
        self.write_count += writes
        slots = self.size + 1
        self.gap[:] = (self.size - total) % slots
        self.start[:] = total // slots % self.size
        self.total_movements[:] = total

    def movement_wear(self, movements: np.ndarray) -> np.ndarray:
        """Exact per-bank-slot wear of ``movements[r]`` gap movements each.

        Movement ``j`` of region ``r`` copies into local slot ``(gap - j)
        mod (size + 1)`` (the gap walks downward, wrapping through the top
        slot), so each region takes ``movements // (size + 1)`` full laps
        plus one contiguous wrapped run — no loop needed.
        """
        slots = self.size + 1
        laps, rem = np.divmod(np.asarray(movements, dtype=np.int64), slots)
        walked = (self.gap[:, None] - np.arange(slots)) % slots < rem[:, None]
        return (laps[:, None] + walked).ravel()


class StartGap(WearLeveler):
    """Start-Gap over ``n_regions`` equal regions of the IA space.

    Region ``r`` holds IAs ``r * region_size .. (r + 1) * region_size - 1``
    and runs its own Start-Gap registers in one :class:`StartGapBank`.
    Here the IA is the LA (:meth:`randomize` is the identity) and one
    region spans the whole logical space; Region-Based Start-Gap adds the
    regions and a static randomizer.
    """

    def __init__(self, n_lines: int, remap_interval: int = 100):
        self._init_regions(n_lines, 1, remap_interval)

    def _init_regions(self, n_lines: int, n_regions: int, remap_interval: int) -> None:
        """Lay out ``n_regions`` regions, each with its own gap line."""
        self.n_lines = n_lines
        self.n_regions = n_regions
        self.region_size = n_lines // n_regions
        self.n_physical = n_lines + n_regions  # one gap line per region
        self.regions = StartGapBank(n_regions, self.region_size, remap_interval)

    # ------------------------------------------------------------- mapping

    def randomize(self, la: int) -> int:
        """LA → IA mapping: the identity."""
        return la

    def randomize_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`randomize`."""
        return np.asarray(las, dtype=np.int64)

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

    def _locate(self, las: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Region and region-local IA of each write."""
        return np.divmod(self.randomize_many(las), self.region_size)

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.regions.translate_many(*self._locate(las))

    def chunk_runs(self, las: np.ndarray) -> Iterator[Window]:
        """The LA → IA mapping has no trigger: one window per chunk,
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
        # The LA → IA mapping is a bijection: uniform stays uniform and a
        # sequential sweep hits every region exactly region_size times.
        return np.full(self.n_regions, 1.0 / self.n_regions)

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Per-region Start-Gap rounds behind the LA → IA mapping.

        User writes split across regions by the mapped distribution
        weights (deterministically discretized so counters advance
        exactly); each region's movement wear is its exact gap walk
        (:meth:`StartGapBank.movement_wear`).  User wear under uniform
        traffic is rotation-smoothed over each region's ``size + 1``
        slots; sequential traffic uses the same smoothing but
        deterministically discretized.  Zipf snapshots the full mapping
        and clips ``writes`` so the hottest region completes at most one
        rotation, keeping the hot lines' slots put within the round.  RAA
        is declined — a single hot address interacts with the moving gap
        at per-interval granularity, which is exactly what the chunk
        engine (and :mod:`repro.sim.roundsim`) already simulate
        efficiently.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        stride = self.region_size + 1
        region_q = self._region_weights(spec)
        if spec.kind == "zipf":
            rotation = stride * self.regions.remap_interval
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
