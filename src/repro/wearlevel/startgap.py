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

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.wearlevel.base import (
    BankWindow,
    CopyMove,
    Move,
    RoundProfile,
    WearLeveler,
    counts_before,
    grouped_cumcount,
    spread_exact,
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
    """Single-region Start-Gap over the whole logical space."""

    def __init__(self, n_lines: int, remap_interval: int = 100):
        self.n_lines = n_lines
        self.n_physical = n_lines + 1
        self.region = StartGapBank(1, n_lines, remap_interval)

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self.region.translate(0, la)

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        move = self.region.record_write(0)
        return [] if move is None else [move]

    # ------------------------------------------------------- batched API

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.region.translate_many(0, np.asarray(las, dtype=np.int64))

    def writes_until_next_remap(self) -> int:
        return int(self.region.remaining()[0])

    def record_writes_many(self, las: np.ndarray) -> None:
        # Address-oblivious single counter; the prefix contract guarantees
        # the bulk advance stays strictly below the next trigger.
        self.region.write_count += int(las.size)

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Closed-form Start-Gap round: exact movement wear + user wear.

        Movement destinations are the deterministic gap walk
        (:meth:`StartGapBank.movement_wear`).  User wear under uniform
        traffic is rotation-smoothed over all ``n + 1`` slots (the mapping
        rotates one slot per ``n + 1`` movements); sequential traffic uses
        the same smoothing but deterministically discretized; zipf
        snapshots the current mapping, with ``writes`` clipped to one full
        rotation so the hot line's slot stays put within the round.  RAA
        is declined — a single hot address interacts with the moving gap
        at per-interval granularity, which is exactly what the chunk
        engine (and :mod:`repro.sim.roundsim`) already simulate
        efficiently.
        """
        if spec.kind == "raa":
            return None
        region = self.region
        writes = int(writes)
        n_slots = self.n_physical
        if spec.kind == "zipf":
            writes = min(writes, n_slots * region.remap_interval)
        movements = region.pending(writes)
        counts = region.movement_wear(movements)
        rates: Optional[np.ndarray] = None
        exact = False
        if spec.kind == "uniform":
            rates = np.full(n_slots, writes / n_slots)
        elif spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            rates = np.zeros(n_slots)
            np.add.at(
                rates,
                self.translate_many(np.arange(self.n_lines, dtype=np.int64)),
                weights,
            )
            rates *= writes
        else:  # sequential: deterministic aggregate, smoothed placement
            counts = counts + spread_exact(
                np.full(n_slots, writes / n_slots), writes
            )
            exact = True
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += int(movements[0]) * timing.copy_latency(spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            exact=exact,
        )

    def apply_round(self, profile: RoundProfile) -> float:
        self.region.advance(profile.writes)
        return profile.elapsed_ns
