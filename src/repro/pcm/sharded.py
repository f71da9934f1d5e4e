"""Sharded PCM line array: per-sub-region banks, optionally memmap-backed.

A 2^25-line device carries ~1 GB of per-line state (wear counters, latency
classes, endurance maps); a monolithic :class:`~repro.pcm.array.PCMArray`
holds all of it in one resident numpy allocation.  :class:`ShardedPCMArray`
splits the physical space into ``n_shards`` contiguous banks, each backed by
its own numpy arrays — or, with ``memmap_dir`` set, by ``np.memmap`` files
so the OS pages cold banks out and paper-scale devices no longer need to fit
in RAM.  The shard table doubles as the unit of distribution: campaign
workers can each own a subset of banks (see :meth:`shard_spans`).

API contract
------------
The class is *duck-typed* against :class:`~repro.pcm.array.PCMArray` — it is
not a subclass, because almost every hot method needs a different body and
inheriting would silently fall back to monolithic state.  Everything the
simulation engines and the sparing layer touch is implemented with identical
semantics: scalar ``write``/``copy``/``swap``/``read``, the chunk-exact
``write_many``/``write_events`` (shared with the monolithic array through
:class:`~repro.pcm.array.OrderedWrites`, over this class's gathers and bulk
store, so :class:`~repro.pcm.array.LineFailure.chunk_index` attribution is
exact), the fast-forward commit point ``apply_wear_bulk`` (all-or-nothing
*across* banks), ``bulk_wear``, ``fill_data`` and ``add_lines``.

Deviations, all explicit:

* ``endurance_variation`` and fault injection are rejected at construction
  (their per-line state does not shard profitably and the fast-forward tier
  cannot advance it in closed form); ``faults``/``ecc``/``stuck_bits`` are
  ``None`` exactly like a fault-free monolithic array.
* The :attr:`wear` and :attr:`data` properties return **read-only gathered
  copies** — convenient for statistics, wrong for mutation.  Writing through
  them raises instead of silently updating a copy; in-place paths go through
  the methods (the sparing layer uses :meth:`copy_data`).

Address layout
--------------
Global physical addresses keep the monolithic layout: data lines
``[0, n_data)`` split into near-equal contiguous bank ranges (bank lookup is
one ``searchsorted`` on the offset table), and spare lines appended by
:meth:`add_lines` stay globally contiguous at the end — each spare is
*stored* in some bank's local tail (``add_lines`` deals spares round-robin,
one pool per shard) and an explicit index pair (bank, local slot) maps the
global spare PA to its home.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import PCMConfig
from repro.pcm.array import LineFailure, OrderedWrites
from repro.pcm.timing import LineData, TimingModel


class ShardedPCMArray(OrderedWrites):
    """A bank-sharded, optionally memmap-backed PCM line array.

    Parameters
    ----------
    config:
        Device parameters; ``config.endurance`` is the per-line budget.
        Fault injection must be disabled.
    n_physical:
        Physical lines (defaults to ``config.n_lines``).
    n_shards:
        Number of contiguous banks to split the space into.
    memmap_dir:
        When set, each bank's wear and data arrays live in ``.dat`` files
        under this directory (created if missing) instead of RAM.
    """

    def __init__(
        self,
        config: PCMConfig,
        n_physical: Optional[int] = None,
        initial_data: LineData = LineData.ALL0,
        raise_on_failure: bool = True,
        n_shards: int = 8,
        memmap_dir: Optional[str] = None,
    ) -> None:
        if config.fault_injection_enabled:
            raise ValueError(
                "ShardedPCMArray does not support fault injection; "
                "use the monolithic PCMArray"
            )
        self.config = config
        self.timing = TimingModel(config)
        self.n_physical = config.n_lines if n_physical is None else int(n_physical)
        if self.n_physical < config.n_lines:
            raise ValueError(
                f"n_physical ({self.n_physical}) must cover the logical space "
                f"({config.n_lines} lines)"
            )
        if not 1 <= n_shards <= self.n_physical:
            raise ValueError(
                f"n_shards ({n_shards}) must be in [1, {self.n_physical}]"
            )
        self.n_shards = int(n_shards)
        self.raise_on_failure = raise_on_failure
        self.total_writes = 0
        self.elapsed_ns = 0.0
        self._first_failure: Optional[LineFailure] = None
        self._memmap_dir = memmap_dir
        if memmap_dir is not None:
            os.makedirs(memmap_dir, exist_ok=True)
        # Near-equal contiguous split of the initial (data) space.  Spares
        # added later extend banks locally but keep global PAs at the end.
        base, rem = divmod(self.n_physical, self.n_shards)
        sizes = [base + (1 if b < rem else 0) for b in range(self.n_shards)]
        self._data_counts = np.asarray(sizes, dtype=np.int64)
        self._offsets = np.concatenate(
            [[0], np.cumsum(self._data_counts[:-1])]
        ).astype(np.int64)
        self._n_data = self.n_physical
        self._wear: List[np.ndarray] = []
        self._data: List[np.ndarray] = []
        for b, size in enumerate(sizes):
            self._wear.append(
                self._alloc(f"wear_{b}", np.int64, size, fill=0)
            )
            self._data.append(
                self._alloc(f"data_{b}", np.int8, size, fill=int(initial_data))
            )
        # Global spare PA -> (bank, local slot) in that bank's tail.
        self._spare_bank = np.empty(0, dtype=np.int64)
        self._spare_local = np.empty(0, dtype=np.int64)
        # PCMArray duck-type surface the health/engine layers probe.
        self.endurance_map: Optional[np.ndarray] = None
        self.faults = None
        self.ecc = None
        self.stuck_bits: Optional[np.ndarray] = None
        self.retry_events = 0
        self.stuck_cell_events = 0

    # --------------------------------------------------------- bank storage

    def _alloc(
        self, name: str, dtype: type, size: int, fill: int
    ) -> np.ndarray:
        if size == 0:
            return np.empty(0, dtype=dtype)
        if self._memmap_dir is None:
            return np.full(size, fill, dtype=dtype)
        path = os.path.join(self._memmap_dir, f"{name}_{size}.dat")
        arr = np.memmap(path, dtype=dtype, mode="w+", shape=(size,))
        arr[:] = fill
        return arr

    def _grow(self, name: str, old: np.ndarray, extra: int) -> np.ndarray:
        """Extend one bank array by ``extra`` zero/ALL0 slots."""
        fill = 0 if old.dtype == np.int64 else int(LineData.ALL0)
        if self._memmap_dir is None:
            return np.concatenate([old, np.full(extra, fill, dtype=old.dtype)])
        # memmap files are fixed-size: allocate the larger file and copy.
        # Spare pools are tiny relative to banks, so this happens once.
        size = old.size + extra
        path = os.path.join(self._memmap_dir, f"{name}_{size}.dat")
        arr = np.memmap(path, dtype=old.dtype, mode="w+", shape=(size,))
        arr[: old.size] = old[:]
        arr[old.size :] = fill
        return arr

    def add_lines(self, extra: int) -> int:
        """Append ``extra`` spare lines, dealt round-robin across shards.

        Global spare PAs stay contiguous at the end of the address space
        (``[n_physical, n_physical + extra)`` before the call) exactly like
        the monolithic array, so the sparing layer works unchanged; each
        spare physically lives in one bank's local tail.
        """
        if extra < 0:
            raise ValueError("extra must be >= 0")
        base = self.n_physical
        if extra == 0:
            return base
        per_bank, rem = divmod(extra, self.n_shards)
        new_bank = np.empty(extra, dtype=np.int64)
        new_local = np.empty(extra, dtype=np.int64)
        cursor = 0
        for b in range(self.n_shards):
            share = per_bank + (1 if b < rem else 0)
            if share == 0:
                continue
            start = self._wear[b].size
            self._wear[b] = self._grow(f"wear_{b}", self._wear[b], share)
            self._data[b] = self._grow(f"data_{b}", self._data[b], share)
            new_bank[cursor : cursor + share] = b
            new_local[cursor : cursor + share] = start + np.arange(share)
            cursor += share
        self._spare_bank = np.concatenate([self._spare_bank, new_bank])
        self._spare_local = np.concatenate([self._spare_local, new_local])
        self.n_physical += extra
        return base

    def shard_spans(self) -> List[Tuple[int, int, int]]:
        """Per-shard ``(data_start, data_end, n_spares)`` global-PA metadata.

        The distribution unit for campaign workers: a worker owning shard
        ``b`` owns the contiguous data range plus the spares dealt to it.
        """
        spares = np.bincount(self._spare_bank, minlength=self.n_shards)
        return [
            (
                int(self._offsets[b]),
                int(self._offsets[b] + self._data_counts[b]),
                int(spares[b]),
            )
            for b in range(self.n_shards)
        ]

    # ----------------------------------------------------------- addressing

    def _locate(self, pa: int) -> Tuple[int, int]:
        pa = int(pa)
        if not 0 <= pa < self.n_physical:
            raise IndexError(f"physical address {pa} outside [0, {self.n_physical})")
        if pa >= self._n_data:
            j = pa - self._n_data
            return int(self._spare_bank[j]), int(self._spare_local[j])
        b = int(np.searchsorted(self._offsets, pa, side="right")) - 1
        return b, pa - int(self._offsets[b])

    def _locate_many(self, pas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pas = np.asarray(pas, dtype=np.int64)
        banks = np.empty(pas.size, dtype=np.int64)
        locals_ = np.empty(pas.size, dtype=np.int64)
        spare = pas >= self._n_data
        if spare.any():
            j = pas[spare] - self._n_data
            banks[spare] = self._spare_bank[j]
            locals_[spare] = self._spare_local[j]
        dense = ~spare
        if dense.any():
            p = pas[dense]
            b = np.searchsorted(self._offsets, p, side="right") - 1
            banks[dense] = b
            locals_[dense] = p - self._offsets[b]
        return banks, locals_

    def _gather(self, arrays: List[np.ndarray], pas: np.ndarray) -> np.ndarray:
        banks, locals_ = self._locate_many(pas)
        out = np.empty(banks.size, dtype=arrays[0].dtype)
        for b in np.unique(banks):
            mask = banks == b
            out[mask] = arrays[int(b)][locals_[mask]]
        return out

    def _gather_wear(self, pas: np.ndarray) -> np.ndarray:
        return self._gather(self._wear, pas)

    # ------------------------------------------------------------------ I/O

    def read(self, pa: int) -> LineData:
        """Read the latency class stored at physical line ``pa``."""
        return self.read_with_latency(pa)[0]

    def read_with_latency(self, pa: int) -> Tuple[LineData, float]:
        """Read line ``pa``; return ``(data, latency_ns)``."""
        latency = self.timing.read_latency()
        self.elapsed_ns += latency
        b, i = self._locate(pa)
        return LineData(int(self._data[b][i])), latency

    def peek(self, pa: int) -> LineData:
        """Read without advancing time (for internal bookkeeping/tests)."""
        b, i = self._locate(pa)
        return LineData(int(self._data[b][i]))

    def copy_data(self, src: int, dst: int) -> None:
        """Duplicate stored content ``src`` -> ``dst``, no wear, no latency.

        The sparing layer's salvage step; also the only sanctioned way to
        poke line contents from outside (the :attr:`data` property returns
        a read-only copy).
        """
        sb, si = self._locate(src)
        db, di = self._locate(dst)
        self._data[db][di] = self._data[sb][si]

    def write(self, pa: int, data: LineData) -> float:
        """Write ``data`` to line ``pa``; return this write's latency in ns."""
        b, i = self._locate(pa)
        old = LineData(int(self._data[b][i]))
        latency, wears = self.timing.write_transition(old, data)
        self.elapsed_ns += latency
        if wears:
            self._apply_wear(pa, b, i)
        self._data[b][i] = int(data)
        return latency

    def copy(self, src: int, dst: int) -> float:
        """Remap movement: read ``src``, write its content to ``dst``."""
        sb, si = self._locate(src)
        db, di = self._locate(dst)
        data = LineData(int(self._data[sb][si]))
        old = LineData(int(self._data[db][di]))
        write_ns, wears = self.timing.write_transition(old, data)
        latency = self.timing.read_latency() + write_ns
        self.elapsed_ns += latency
        if wears:
            self._apply_wear(dst, db, di)
        self._data[db][di] = int(data)
        return latency

    def swap(self, pa_a: int, pa_b: int) -> float:
        """Security-Refresh movement: exchange two lines' contents."""
        ab, ai = self._locate(pa_a)
        bb, bi = self._locate(pa_b)
        da = LineData(int(self._data[ab][ai]))
        db = LineData(int(self._data[bb][bi]))
        write_a, wears_a = self.timing.write_transition(da, db)
        write_b, wears_b = self.timing.write_transition(db, da)
        latency = 2.0 * self.timing.read_latency() + write_a + write_b
        self.elapsed_ns += latency
        if wears_a:
            self._apply_wear(pa_a, ab, ai)
        if wears_b:
            self._apply_wear(pa_b, bb, bi)
        self._data[ab][ai] = int(db)
        self._data[bb][bi] = int(da)
        return latency

    # ------------------------------------------------------- batched I/O

    def _data_of(self, pas: np.ndarray) -> np.ndarray:
        return self._gather(self._data, pas)

    def _wear_of(self, pas: np.ndarray) -> np.ndarray:
        return self._gather_wear(pas)

    def _limit_of(self, pas: np.ndarray) -> float:
        return self.config.endurance

    def _store(self, wear_pas: np.ndarray, pas: np.ndarray, datas: np.ndarray) -> None:
        banks, locals_ = self._locate_many(wear_pas)
        for b in np.unique(banks):
            mask = banks == b
            np.add.at(self._wear[int(b)], locals_[mask], 1)
        # The per-bank masks preserve chunk order, so fancy assignment
        # within each bank stores chronologically (last write wins).
        banks, locals_ = self._locate_many(pas)
        for b in np.unique(banks):
            mask = banks == b
            self._data[int(b)][locals_[mask]] = datas[mask]

    # --------------------------------------------------------------- wear

    def _apply_wear(self, pa: int, bank: int, local: int) -> None:
        wear_arr = self._wear[bank]
        wear_arr[local] += 1
        self.total_writes += 1
        if wear_arr[local] >= self.config.endurance:
            failure = LineFailure(
                pa=int(pa),
                wear=int(wear_arr[local]),
                total_writes=self.total_writes,
                elapsed_ns=self.elapsed_ns,
            )
            if self._first_failure is None:
                self._first_failure = failure
            if self.raise_on_failure:
                raise failure

    def bulk_wear(
        self,
        pas: Union[int, slice, Sequence[int], np.ndarray],
        counts: Union[int, np.ndarray],
        write_ns: Optional[float] = None,
    ) -> None:
        """Apply ``counts`` writes to ``pas``; see the monolithic docstring.

        Failure semantics match: after the increment the addressed lines
        are scanned *in pas order* and the first over-limit one raises.
        """
        if write_ns is None:
            write_ns = self.config.set_ns
        if isinstance(pas, slice):
            idx = np.arange(*pas.indices(self.n_physical), dtype=np.int64)
        elif np.isscalar(pas):
            idx = np.asarray([pas], dtype=np.int64)
        else:
            idx = np.asarray(pas, dtype=np.int64)
        banks, locals_ = self._locate_many(idx)
        if np.isscalar(counts):
            for b in np.unique(banks):
                mask = banks == b
                np.add.at(self._wear[int(b)], locals_[mask], int(counts))
            new_writes = int(counts) * int(idx.size)
        else:
            counts_arr = np.asarray(counts, dtype=np.int64)
            for b in np.unique(banks):
                mask = banks == b
                np.add.at(self._wear[int(b)], locals_[mask], counts_arr[mask])
            new_writes = int(counts_arr.sum())
        self.total_writes += new_writes
        self.elapsed_ns += new_writes * write_ns
        over = self._gather_wear(idx) >= self.config.endurance
        if over.any():
            pa = int(idx[int(np.argmax(over))])
            b, i = self._locate(pa)
            failure = LineFailure(
                pa=pa,
                wear=int(self._wear[b][i]),
                total_writes=self.total_writes,
                elapsed_ns=self.elapsed_ns,
            )
            if self._first_failure is None:
                self._first_failure = failure
            if self.raise_on_failure:
                raise failure

    def apply_wear_bulk(self, counts: np.ndarray, elapsed_ns: float) -> bool:
        """All-or-nothing dense wear commit; refuses across *all* banks.

        The fast-forward engine's commit point, sharded: each bank's data
        slice runs the same max-based pre-screen as the monolithic array,
        and the whole device refuses (mutating nothing anywhere) if any
        bank — or any spare line — would cross its endurance limit.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_physical,):
            raise ValueError(
                f"counts must be dense over {self.n_physical} lines, "
                f"got shape {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise ValueError("negative wear count")
        limit = self.config.endurance
        spare_counts = counts[self._n_data :]
        for b in range(self.n_shards):
            off = int(self._offsets[b])
            dc = int(self._data_counts[b])
            if dc == 0:
                continue
            seg = counts[off : off + dc]
            wear = self._wear[b][:dc]
            if int(wear.max()) + int(seg.max()) >= limit:
                if bool(((wear + seg) >= limit).any()):
                    return False
        for j in range(int(spare_counts.size)):
            b, i = int(self._spare_bank[j]), int(self._spare_local[j])
            if int(self._wear[b][i]) + int(spare_counts[j]) >= limit:
                return False
        for b in range(self.n_shards):
            off = int(self._offsets[b])
            dc = int(self._data_counts[b])
            if dc:
                self._wear[b][:dc] += counts[off : off + dc]
        for j in range(int(spare_counts.size)):
            if spare_counts[j]:
                self._wear[int(self._spare_bank[j])][
                    int(self._spare_local[j])
                ] += int(spare_counts[j])
        self.total_writes += int(counts.sum())
        self.elapsed_ns += float(elapsed_ns)
        return True

    def fill_data(self, value: LineData, end: Optional[int] = None) -> None:
        """Set lines ``[0, end)`` to ``value`` without wear or latency."""
        if end is None:
            end = self.n_physical
        v = np.int8(int(value))
        dense_end = min(int(end), self._n_data)
        for b in range(self.n_shards):
            off = int(self._offsets[b])
            if off >= dense_end:
                break
            hi = min(dense_end, off + int(self._data_counts[b]))
            self._data[b][: hi - off] = v
        for j in range(max(0, int(end) - self._n_data)):
            self._data[int(self._spare_bank[j])][int(self._spare_local[j])] = v

    # -------------------------------------------------------------- status

    @property
    def failed(self) -> bool:
        """True once any line has exhausted its endurance."""
        return self._first_failure is not None

    @property
    def first_failure(self) -> Optional[LineFailure]:
        """Details of the first line failure, if any."""
        return self._first_failure

    @property
    def max_wear(self) -> int:
        """Largest per-line wear count so far (max over banks)."""
        return max(int(w.max()) if w.size else 0 for w in self._wear)

    @property
    def wear(self) -> np.ndarray:
        """Read-only gathered copy of all wear counters in global PA order.

        A copy by construction (banks are separate allocations); marked
        read-only so accidental ``array.wear[pa] = x`` raises instead of
        mutating a temporary.  Statistics consumers (Gini, wear maps) use
        this; hot paths never should.
        """
        return self._gathered(self._wear)

    @property
    def data(self) -> np.ndarray:
        """Read-only gathered copy of all line contents in global PA order."""
        return self._gathered(self._data)

    def _gathered(self, arrays: List[np.ndarray]) -> np.ndarray:
        out = np.empty(self.n_physical, dtype=arrays[0].dtype)
        for b in range(self.n_shards):
            off = int(self._offsets[b])
            dc = int(self._data_counts[b])
            out[off : off + dc] = arrays[b][:dc]
        for j in range(int(self._spare_bank.size)):
            out[self._n_data + j] = arrays[int(self._spare_bank[j])][
                int(self._spare_local[j])
            ]
        out.setflags(write=False)
        return out

    def remaining_endurance(self) -> np.ndarray:
        """Per-line writes remaining before failure (clipped at zero)."""
        remaining = self.config.endurance - self.wear
        return np.clip(remaining, 0, None)
