"""Security Refresh (Seong et al., ISCA 2010; paper Section III-C).

One SR region dynamically remaps its lines by XORing with a random key.
Two key registers (``keyc`` for the in-progress round, ``keyp`` for the
previous, completed round) plus the Current Refresh Pointer (``CRP``) define
the mapping at any instant:

* line ``la`` has been remapped this round iff ``min(la, pair(la)) < CRP``
  where ``pair(la) = la XOR keyc XOR keyp``;
* its physical slot is ``la XOR keyc`` if remapped, else ``la XOR keyp``.

Remapping exploits SR's pairwise property: the new slot of ``la`` is the old
slot of ``pair(la)`` and vice versa, so each remap is a single swap of two
physical lines — no gap line needed (Fig. 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    BankWindow,
    Move,
    RoundProfile,
    SwapMove,
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


def _swaps_before(crp: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Swaps a round with key difference ``diff`` makes before CRP ``crp``.

    Line ``la`` swaps when the CRP passes it iff ``la ^ diff > la``, i.e.
    iff ``la`` has a 0 at ``diff``'s top bit ``2^h``: the lower half of
    every aligned block of ``2^(h+1)`` lines.  ``diff == 0`` swaps none.
    """
    top = diff.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        top |= top >> shift
    half = top - (top >> 1)
    block = np.maximum(2 * half, 1)
    return crp // block * half + np.minimum(crp % block, half)


class SRBank:
    """Security Refresh registers of ``n_regions`` equal regions.

    ``keyc``, ``keyp``, ``crp``, ``write_count``, ``round_count`` and
    ``total_swaps`` are int64 arrays indexed by region; all regions share
    one ``remap_interval`` and one generator, which draws keys in region
    order.  Region ``r`` owns bank slots ``r * size .. (r + 1) * size - 1``
    and every slot the bank returns is such a bank slot.  Used with one
    region by :class:`SecurityRefresh` and as two-level SR's outer level,
    and as the region bank of two-level SR's inner level and Multi-Way SR.
    """

    def __init__(
        self,
        n_regions: int,
        size: int,
        remap_interval: int,
        rng: SeedLike = None,
    ):
        bit_length_exact(size)  # validates power of two
        if remap_interval < 1:
            raise ValueError("remap_interval must be >= 1")
        self.size = size
        self.remap_interval = remap_interval
        self._rng = as_generator(rng)
        self.keyc = self._rng.integers(0, size, size=n_regions)
        self.keyp = self.keyc.copy()  # boot state: one completed round with keyc
        self.crp = np.zeros(n_regions, dtype=np.int64)
        self.write_count = np.zeros(n_regions, dtype=np.int64)
        self.round_count = np.zeros(n_regions, dtype=np.int64)
        self.total_swaps = np.zeros(n_regions, dtype=np.int64)

    # ------------------------------------------------------- scalar path

    def translate(self, r: int, local: int) -> int:
        """Bank slot of region ``r``'s local address ``local``."""
        if not 0 <= local < self.size:
            raise ValueError(f"address {local} outside region [0, {self.size})")
        keyc, keyp = self.keyc.item(r), self.keyp.item(r)
        remapped = min(local, local ^ keyc ^ keyp) < self.crp.item(r)
        return r * self.size + (local ^ (keyc if remapped else keyp))

    def record_write(self, r: int) -> Optional[SwapMove]:
        """Count one write to region ``r``; return a slot swap if triggered.

        Returns ``None`` either when no remap fires or when the fired remap
        needs no data movement (its pair was already handled, Fig. 5(c)).
        """
        count = self.write_count.item(r) + 1
        self.write_count[r] = count
        if count % self.remap_interval:
            return None
        return self.remap_step(r)

    def remap_step(self, r: int) -> Optional[SwapMove]:
        """Advance region ``r``'s CRP by one candidate; swap lines if needed."""
        la = self.crp.item(r)
        keyc, keyp = self.keyc.item(r), self.keyp.item(r)
        swap: Optional[SwapMove] = None
        if la ^ keyc ^ keyp > la:
            # Not yet remapped: move la's data from its old slot to its new
            # slot, which is exactly its pair's old slot — one swap does both.
            base = r * self.size
            swap = SwapMove(pa_a=base + (la ^ keyp), pa_b=base + (la ^ keyc))
            self.total_swaps[r] += 1
        # Otherwise the pair was swapped when the CRP passed it (or la is a
        # fixed point).
        la += 1
        if la == self.size:  # round complete: rotate the keys
            self._end_round(r)
            la = 0
        self.crp[r] = la
        return swap

    def _end_round(self, r: int) -> None:
        """Rotate region ``r``'s keys: ``keyp <- keyc``, draw a fresh ``keyc``."""
        self.keyp[r] = self.keyc.item(r)
        self.keyc[r] = self._rng.integers(0, self.size)
        self.round_count[r] += 1

    # ------------------------------------------------------- vector path

    def translate_many(self, regions: np.ndarray, locals_: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem)."""
        return self._slots(regions, locals_, self.crp[regions])

    def window(self, regions: np.ndarray, locals_: np.ndarray) -> BankWindow:
        """A window of writes in closed form (:class:`BankWindow`).

        Write ``i`` is its region's ``occ[i]``-th in the window, so it
        advances the CRP iff ``(write_count[r] + occ[i] + 1) %
        remap_interval == 0``, and sees the CRP moved ``seen[i]`` times
        (its own advance included).  An advance from CRP ``c`` swaps iff
        ``c ^ keyc ^ keyp > c``.  The window ends right after the first
        advance that completes a key round (it holds the writes up to that
        one): its swap is due under the old keys, and translating that
        write with CRP ``size`` under the old keys gives the new round's
        mapping (CRP 0), so the draw can wait for ``commit(k)``.
        """
        counted = regions >= 0
        interval = self.remap_interval
        # Writes into the region's current interval, this one included
        # (region -1: garbage, masked below).
        into = grouped_cumcount(regions) + (self.write_count % interval + 1)[regions]
        seen, phase = np.divmod(into, interval)
        crp = self.crp[regions] + seen
        fired = np.flatnonzero(counted & (phase == 0))
        ends = fired[crp[fired] == self.size]
        n = int(regions.size) if ends.size == 0 else int(ends[0]) + 1
        regions, locals_, crp = regions[:n], locals_[:n], crp[:n]
        fired = fired[fired < n]
        pas = self._slots(regions, locals_, crp)
        la = crp[fired] - 1  # the CRP each advance starts from
        fired_regions = regions[fired]
        swaps = (la ^ self.keyc[fired_regions] ^ self.keyp[fired_regions]) > la
        at, la = fired[swaps], la[swaps]
        owner = fired_regions[swaps]
        base = owner * self.size
        moves = (
            at,
            np.ones(at.size, dtype=bool),
            base + (la ^ self.keyp[owner]),
            base + (la ^ self.keyc[owner]),
        )
        n_regions = self.write_count.size

        def commit(k: int) -> None:
            self.write_count += np.bincount(regions[:k][counted[:k]], minlength=n_regions)
            self.crp += np.bincount(regions[fired[fired < k]], minlength=n_regions)
            self.total_swaps += np.bincount(regions[at[at < k]], minlength=n_regions)
            if k == n and ends.size:
                done = int(regions[n - 1])
                self.crp[done] = 0
                self._end_round(done)

        def slots_before(rs: np.ndarray, ls: np.ndarray, ps: np.ndarray) -> np.ndarray:
            crp = self.crp[rs] + counts_before(regions, fired, rs, ps)
            return self._slots(rs, ls, crp)

        return BankWindow(pas, moves, commit, slots_before)

    def _slots(
        self, regions: np.ndarray, locals_: np.ndarray, crp: np.ndarray
    ) -> np.ndarray:
        """Bank slots of ``(regions, locals_)`` with each region's CRP at
        ``crp`` under its current keys."""
        keyc, keyp = self.keyc[regions], self.keyp[regions]
        remapped = np.minimum(locals_, locals_ ^ keyc ^ keyp) < crp
        return regions * self.size + (locals_ ^ np.where(remapped, keyc, keyp))

    def remaining(self) -> np.ndarray:
        """Writes each region takes until its CRP advances again (>= 1)."""
        return self.remap_interval - self.write_count % self.remap_interval

    def pending(self, writes: np.ndarray) -> np.ndarray:
        """CRP advances ``writes[r]`` more writes to region ``r`` trigger."""
        interval = self.remap_interval
        return (self.write_count + writes) // interval - self.write_count // interval

    def advance(self, writes: np.ndarray) -> None:
        """Count ``writes[r]`` writes per region and jump over their remaps.

        Closed form of the :meth:`remap_step` calls they trigger.  Completed
        rounds draw their keys in one ``integers`` call split in region
        order, which yields the same keys and generator state as drawing
        them region by region, round by round.  The last two keys of each
        region survive as ``keyp``/``keyc``; every completed round with
        distinct keys swaps half the region (:func:`_swaps_before`).
        """
        triggers = self.pending(writes)
        self.write_count += writes
        diff = self.keyc ^ self.keyp
        rounds, crp = np.divmod(self.crp + triggers, self.size)
        turned = rounds > 0
        swaps = _swaps_before(np.where(turned, self.size, crp), diff)
        swaps -= _swaps_before(self.crp, diff)
        drawn = int(rounds.sum())
        if drawn:
            keys = self._rng.integers(0, self.size, size=drawn)
            last = np.cumsum(rounds)[turned] - 1  # each region's newest key
            prev = np.empty_like(keys)
            prev[1:] = keys[:-1]
            prev[last - rounds[turned] + 1] = self.keyc[turned]
            full = keys != prev
            full[last] = False  # the newest key's round is still running
            owner = np.repeat(np.arange(rounds.size), rounds)
            swaps += np.bincount(owner[full], minlength=rounds.size) * (
                self.size // 2
            )
            swaps[turned] += _swaps_before(crp[turned], keys[last] ^ prev[last])
            self.keyp[turned] = prev[last]
            self.keyc[turned] = keys[last]
            self.round_count += rounds
        self.crp[:] = crp
        self.total_swaps += swaps

    def expected_swaps(self, writes: np.ndarray) -> np.ndarray:
        """Expected swaps ``writes[r]`` more writes to region ``r`` trigger.

        Each address pair ``(la, pair(la))`` swaps exactly once per round,
        when the CRP passes its lower member — half the advances move
        data.  When ``keyc == keyp`` (the boot round) every line is a
        fixed point and nothing ever moves.
        """
        return self.pending(writes) * np.where(self.keyc == self.keyp, 0.0, 0.5)

    def movement_wear(self, swaps: np.ndarray) -> np.ndarray:
        """Expected per-bank-slot wear of ``swaps[r]`` swaps per region.

        Two line writes per swap, rotation-smoothed over the region.
        """
        return np.repeat(2.0 * np.asarray(swaps) / self.size, self.size)


class SecurityRefresh(WearLeveler):
    """Security Refresh over ``n_subregions`` contiguous LA ranges.

    Sub-region ``r`` holds LAs ``r * subregion_size .. (r + 1) *
    subregion_size - 1`` and runs its own SR registers in one
    :class:`SRBank`.  Here one sub-region spans the whole logical space;
    Multi-Way SR adds the sub-regions.
    """

    def __init__(self, n_lines: int, remap_interval: int = 64, rng: SeedLike = None):
        self._init_subregions(n_lines, 1, remap_interval, rng)

    def _init_subregions(
        self, n_lines: int, n_subregions: int, remap_interval: int, rng: SeedLike
    ) -> None:
        """Lay out ``n_subregions`` sub-regions of a power-of-two size."""
        if n_subregions < 1 or n_lines % n_subregions != 0:
            raise ValueError(
                f"n_subregions ({n_subregions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self.n_physical = n_lines  # swap-based: no spare lines
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

    @property
    def key_xor(self) -> int:
        """Ground truth ``keyc XOR keyp`` — what the RTA tries to recover."""
        return self.regions.keyc.item(0) ^ self.regions.keyp.item(0)

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
        discretized so the per-region counters advance exactly.  The key
        XOR is a bijection, so uniform stays uniform and a sequential
        sweep covers every slot of a region evenly.  Swap movement wear is
        two line writes per actual swap, half the CRP advances in
        expectation (see :meth:`SRBank.expected_swaps`), rotation-smoothed
        over the region.  Zipf clips ``writes`` so the hottest region
        completes at most one key round, keeping its mapping snapshot
        valid; RAA is declined.
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
