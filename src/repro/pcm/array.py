"""Wear-tracked PCM line array.

:class:`PCMArray` is the physical substrate every wear-leveling scheme writes
through.  It tracks, per physical line:

* a wear counter (number of completed writes),
* the latency class of the stored data (:class:`~repro.pcm.timing.LineData`).

Wear counters live in a single numpy ``int64`` array so bulk operations
(used by the batched simulation engines) are vectorized slice/fancy-index
adds rather than Python loops.

Failure model: a line fails when its wear counter reaches the configured
endurance; by default the array raises :class:`LineFailure` at the first
failed write, which is how lifetime experiments detect end-of-life.

With fault injection armed (any nonzero fault probability in
:class:`~repro.config.PCMConfig`) the array additionally runs a bounded
program-and-verify retry loop on every wearing write, injects transient
read-disturb errors corrected by :class:`~repro.pcm.ecc.ECPModel`, and
accumulates permanent stuck-at cells; a line whose faulty cells exceed the
ECP capacity raises :class:`UncorrectableError` so the sparing layer can
retire it.  All fault probabilities zero (the default) skips every one of
these paths — latencies and lifetimes are bit-identical to the fault-free
model.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.config import PCMConfig
from repro.pcm.ecc import ECPModel
from repro.pcm.events import EventPlan
from repro.pcm.faults import FaultModel
from repro.pcm.timing import LineData, TimingModel
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import NO_MOVES, Moves


class LineFailure(Exception):
    """Raised when a write lands on a line whose endurance is exhausted.

    When the failing write was part of a :meth:`PCMArray.write_events`
    (or ``write_many``) list, :attr:`chunk_index` carries the position of
    the user write it belongs to — the write itself, or the write whose
    remap movement failed — so the batched engine can attribute
    user-write counts exactly as the scalar engine would;
    :meth:`~repro.sim.memory_system.MemoryController.write_chunk` turns
    it into the position in its own chunk.
    """

    #: Index of the failing event's user write within its list or
    #: ``write_chunk`` chunk (None for a bare scalar write).
    chunk_index: Optional[int] = None

    def __init__(
        self, pa: int, wear: int, total_writes: int, elapsed_ns: float
    ) -> None:
        self.pa = pa
        self.wear = wear
        self.total_writes = total_writes
        self.elapsed_ns = elapsed_ns
        super().__init__(
            f"physical line {pa} failed after {wear} writes "
            f"({total_writes} total device writes, {elapsed_ns:.0f} ns elapsed)"
        )


class UncorrectableError(LineFailure):
    """A line accumulated more faulty cells than ECP can substitute.

    Subclasses :class:`LineFailure` so every retirement path (sparing,
    lifetime experiments) treats it as a line death; ``n_errors`` carries
    the error count that overflowed the correction capacity.
    """

    def __init__(
        self,
        pa: int,
        wear: int,
        total_writes: int,
        elapsed_ns: float,
        n_errors: int,
    ) -> None:
        super().__init__(pa, wear, total_writes, elapsed_ns)
        self.n_errors = n_errors


class PCMArray:
    """A bank of ``n_physical`` wear-limited lines.

    Parameters
    ----------
    config:
        Device parameters; ``config.endurance`` is the per-line write budget.
    n_physical:
        Number of physical lines.  Wear-leveling schemes typically require
        spares, so this is at least ``config.n_lines``.
    initial_data:
        Latency class the lines start with (default ``ALL0``).
    raise_on_failure:
        If True (default), the first write to a worn-out line raises
        :class:`LineFailure`.  If False, failures are recorded in
        :attr:`failed` and writes keep succeeding (useful for wear-
        distribution studies past first failure, e.g. Fig. 16).
    """

    def __init__(
        self,
        config: PCMConfig,
        n_physical: Optional[int] = None,
        initial_data: LineData = LineData.ALL0,
        raise_on_failure: bool = True,
        endurance_variation: float = 0.0,
        rng: SeedLike = None,
        fault_rng: SeedLike = None,
    ) -> None:
        self.config = config
        self.timing = TimingModel(config)
        self.n_physical = config.n_lines if n_physical is None else int(n_physical)
        if self.n_physical < config.n_lines:
            raise ValueError(
                f"n_physical ({self.n_physical}) must cover the logical space "
                f"({config.n_lines} lines)"
            )
        self.wear = np.zeros(self.n_physical, dtype=np.int64)
        self.data = np.full(self.n_physical, int(initial_data), dtype=np.int8)
        self.raise_on_failure = raise_on_failure
        self.total_writes = 0
        self.elapsed_ns = 0.0
        self._first_failure: Optional[LineFailure] = None
        # Process variation: per-line endurance ~ N(E, cv*E), floored at
        # 1 % of nominal.  cv = 0 keeps the fast scalar-threshold path.
        if endurance_variation < 0:
            raise ValueError("endurance_variation must be >= 0")
        self._endurance_cv = endurance_variation
        self._endurance_gen: Optional[np.random.Generator]
        self.endurance_map: Optional[np.ndarray]
        if endurance_variation > 0:
            self._endurance_gen = as_generator(rng)
            self.endurance_map = self._draw_endurance(self.n_physical)
        else:
            self._endurance_gen = None
            self.endurance_map = None
        # Fault injection (read disturb / verify failure / stuck-at) plus
        # ECP correction; None when every fault probability is zero so the
        # fault-free hot paths carry no extra branches beyond one test.
        self.faults: Optional[FaultModel]
        self.ecc: Optional[ECPModel]
        self.stuck_bits: Optional[np.ndarray]
        if config.fault_injection_enabled:
            self.faults = FaultModel(config, fault_rng)
            self.ecc = ECPModel(config)
            self.stuck_bits = np.zeros(self.n_physical, dtype=np.int16)
        else:
            self.faults = None
            self.ecc = None
            self.stuck_bits = None
        self.retry_events = 0
        self.stuck_cell_events = 0

    def _draw_endurance(self, count: int) -> np.ndarray:
        assert self._endurance_gen is not None  # armed iff variation > 0
        draws = self._endurance_gen.normal(
            self.config.endurance,
            self._endurance_cv * self.config.endurance,
            size=count,
        )
        floor = max(1.0, 0.01 * self.config.endurance)
        return np.maximum(draws, floor)

    def add_lines(self, extra: int) -> int:
        """Append ``extra`` fresh lines (a sparing pool); return their base PA.

        Extends every per-line structure consistently — wear, data, stuck
        cells and (when process variation is on) the endurance map, whose
        new entries are drawn from the same seeded distribution.
        """
        if extra < 0:
            raise ValueError("extra must be >= 0")
        base = self.n_physical
        if extra == 0:
            return base
        self.wear = np.concatenate(
            [self.wear, np.zeros(extra, dtype=self.wear.dtype)]
        )
        self.data = np.concatenate(
            [self.data, np.full(extra, int(LineData.ALL0), dtype=self.data.dtype)]
        )
        if self.stuck_bits is not None:
            self.stuck_bits = np.concatenate(
                [self.stuck_bits, np.zeros(extra, dtype=self.stuck_bits.dtype)]
            )
        if self.endurance_map is not None:
            self.endurance_map = np.concatenate(
                [self.endurance_map, self._draw_endurance(extra)]
            )
        self.n_physical += extra
        return base

    def _endurance_of(self, pa: int) -> float:
        if self.endurance_map is None:
            return self.config.endurance
        return float(self.endurance_map[pa])

    # ------------------------------------------------------------------ I/O

    def read(self, pa: int) -> LineData:
        """Read the latency class stored at physical line ``pa``."""
        return self.read_with_latency(pa)[0]

    def read_with_latency(self, pa: int) -> Tuple[LineData, float]:
        """Read line ``pa``; return ``(data, latency_ns)``.

        With fault injection armed the read sees the line's permanent
        stuck cells plus freshly drawn transient read-disturb errors;
        ECP correction adds latency per corrected cell, and an error
        count above the ECP capacity raises :class:`UncorrectableError`
        (under ``raise_on_failure``) so the caller can retire the line.
        """
        latency = self.timing.read_latency()
        self.elapsed_ns += latency
        if self.faults is not None:
            assert self.stuck_bits is not None and self.ecc is not None
            n_errors = int(self.stuck_bits[pa]) + self.faults.read_disturb_errors()
            if n_errors:
                outcome = self.ecc.correct(n_errors)
                self.elapsed_ns += outcome.latency_ns
                latency += outcome.latency_ns
                if not outcome.correctable:
                    failure = UncorrectableError(
                        pa=int(pa),
                        wear=int(self.wear[pa]),
                        total_writes=self.total_writes,
                        elapsed_ns=self.elapsed_ns,
                        n_errors=n_errors,
                    )
                    if self._first_failure is None:
                        self._first_failure = failure
                    if self.raise_on_failure:
                        raise failure
        return LineData(int(self.data[pa])), latency

    def peek(self, pa: int) -> LineData:
        """Read without advancing time (for internal bookkeeping/tests)."""
        return LineData(int(self.data[pa]))

    def write(self, pa: int, data: LineData) -> float:
        """Write ``data`` to line ``pa``; return this write's latency in ns.

        The latency is also accumulated on :attr:`elapsed_ns`.  Under
        ``config.differential_writes`` a rewrite of identical content
        costs a verify read and causes no wear.  With a nonzero
        ``config.verify_fail_base`` every wearing write runs the
        program-and-verify retry loop, whose cost (one verify read, plus
        a re-program and re-verify per failed attempt) is folded into
        the returned latency — retries are attacker-observable.
        """
        old = LineData(int(self.data[pa]))
        latency, wears = self.timing.write_transition(old, data)
        self.elapsed_ns += latency
        if wears:
            self._apply_wear(pa)
            if self.faults is not None and self.faults.verify_armed:
                latency += self._verify_and_retry(pa, data)
        self.data[pa] = int(data)
        return latency

    def copy(self, src: int, dst: int) -> float:
        """Remap movement: read ``src``, write its content to ``dst``.

        Returns the movement latency (Fig. 4(a) cost).
        """
        data = LineData(int(self.data[src]))
        old = LineData(int(self.data[dst]))
        write_ns, wears = self.timing.write_transition(old, data)
        latency = self.timing.read_latency() + write_ns
        self.elapsed_ns += latency
        if wears:
            self._apply_wear(dst)
            if self.faults is not None and self.faults.verify_armed:
                latency += self._verify_and_retry(dst, data)
        self.data[dst] = int(data)
        return latency

    def swap(self, pa_a: int, pa_b: int) -> float:
        """Security-Refresh movement: exchange two lines' contents.

        Returns the swap latency (Fig. 4(b) cost).  Both lines wear by one
        (unless differential writes skip an identical rewrite).
        """
        da = LineData(int(self.data[pa_a]))
        db = LineData(int(self.data[pa_b]))
        write_a, wears_a = self.timing.write_transition(da, db)
        write_b, wears_b = self.timing.write_transition(db, da)
        latency = 2.0 * self.timing.read_latency() + write_a + write_b
        self.elapsed_ns += latency
        if wears_a:
            self._apply_wear(pa_a)
        if wears_b:
            self._apply_wear(pa_b)
        if self.faults is not None and self.faults.verify_armed:
            if wears_a:
                latency += self._verify_and_retry(pa_a, db)
            if wears_b:
                latency += self._verify_and_retry(pa_b, da)
        self.data[pa_a] = int(db)
        self.data[pa_b] = int(da)
        return latency

    # ------------------------------------------------------- batched I/O

    def write_many(self, pas: np.ndarray, datas: np.ndarray) -> float:
        """Write a chunk of lines; return the chunk's total latency in ns.

        :meth:`write_events` without movements: bit-identical to calling
        :meth:`write` once per element, duplicate ``pas`` included (wear
        accumulates per occurrence, differential-write transitions chain
        through the chunk, the last write wins for stored data).
        """
        return self.write_events(pas, datas)

    def write_events(
        self,
        pas: np.ndarray,
        datas: np.ndarray,
        moves: Moves = NO_MOVES,
        out: Optional[np.ndarray] = None,
    ) -> float:
        """Apply user writes and the remap movements between them in order.

        ``moves = (at, swap, a, b)``: movement ``m`` runs just before user
        write ``at[m]``, a swap of lines ``a[m]`` and ``b[m]`` when
        ``swap[m]``, else a copy of line ``a[m]`` to line ``b[m]``
        (:mod:`repro.pcm.events`).  Bit-identical to the scalar
        :meth:`write`/:meth:`copy`/:meth:`swap` calls in that order; returns
        their total latency in ns (latencies are integer-valued ns, so the
        float sum is exact in any order).

        The first line write that reaches its endurance is found from a
        running count per line.  The events before it are applied in bulk
        and its event through the scalar method, so the
        :class:`LineFailure` holds the scalar path's wear, ``total_writes``
        and ``elapsed_ns`` (a failing movement's latency included), and
        its ``chunk_index`` is the user write the event belongs to.  With
        ``raise_on_failure`` off the events after it follow in bulk.
        Under fault injection, and for a single user write with its
        movements, the list replays through the scalar methods.
        ``pas`` and ``datas`` of different lengths, or movement positions
        that do not ascend within ``[0, len(pas))`` (which no scalar
        sequence produces), raise ``ValueError`` before any state changes.

        ``out``, a float64 array of ``len(pas)``, receives each user
        write's latency with that of the movements that run before it:
        what the scalar calls for that write and its movements return in
        total.  After a :class:`LineFailure` only the entries before
        ``chunk_index`` are set.  Without ``out`` nothing per write is
        computed.
        """
        pas = np.ascontiguousarray(pas, dtype=np.int64)
        datas = np.ascontiguousarray(datas, dtype=np.int8)
        n = int(pas.size)
        if datas.size != n:
            raise ValueError(
                f"chunk has {n} addresses but {datas.size} data values"
            )
        if out is not None and out.shape != (n,):
            raise ValueError(f"out has shape {out.shape}, expected ({n},)")
        at = moves[0]
        if at.size and (
            int(at[0]) < 0
            or int(at[-1]) >= n
            or (at.size > 1 and bool((at[1:] < at[:-1]).any()))
        ):
            raise ValueError(f"movement positions must ascend within [0, {n})")
        if n + int(at.size) == 0:
            return 0.0
        if self.faults is not None or n == 1:
            # Fault draws must happen per write, in order; and one write
            # with its movements costs less through the scalar calls.
            return self._replay(pas, datas, moves, out)
        plan = EventPlan(self, pas, datas, moves)
        wear_pas = plan.wear_pas()
        # Cheap screen: even if every write landed on the most worn line
        # touched, could anything fail?  Only then pay for the ordered test.
        check = False
        if self._first_failure is None:
            limit = self._limit_of(wear_pas)
            low = float(limit.min()) if isinstance(limit, np.ndarray) else limit
            check = int(self.wear[wear_pas].max()) + int(wear_pas.size) >= low
        if not (check or self.config.differential_writes):
            table = self.timing.latency_table
            ns = float(table[datas].sum())
            if plan.move_dst.size:
                ns += float(table[plan.move_value].sum())
                ns += plan.move_dst.size * self.timing.read_latency()
            if out is not None:
                out[:] = table[datas]
                plan.charge_moves(out)
            self.elapsed_ns += ns
            lines, values = plan.final
            if lines.size:
                pas = np.concatenate((pas, lines))
                datas = np.concatenate((datas, values))
            self._store(wear_pas, pas, datas)
            self.total_writes += int(wear_pas.size)
            return ns
        plan.lines()
        if out is not None:
            out[:] = 0.0
        stop = plan.first_failure() if check else None
        if stop is None:
            return self._apply(plan, 0, plan.size, out)
        lo, hi, event, owner = stop
        latency = self._apply(plan, 0, lo, out)
        try:
            ns = self._scalar_event(*event)
        except LineFailure as failure:
            failure.chunk_index = owner
            raise
        if out is not None:
            out[owner] += ns
        return latency + ns + self._apply(plan, hi, plan.size, out)

    def _apply(
        self, plan: EventPlan, lo: int, hi: int, out: Optional[np.ndarray]
    ) -> float:
        """Line writes ``[lo, hi)`` of a flattened ``plan``, with their
        events' reads; their latency is added to ``out`` when given."""
        if hi <= lo:
            return 0.0
        part = slice(lo, hi)
        reads = plan.reads_between(lo, hi)
        ns = float(np.sum(plan.latency[part])) + reads * self.timing.read_latency()
        self.elapsed_ns += ns
        if out is not None:
            plan.charge_lines(out, lo, hi)
        dst = plan.dst[part]
        wear_pas = dst if plan.wears is None else dst[plan.wears[part]]
        self._store(wear_pas, dst, plan.value[part])
        self.total_writes += int(wear_pas.size)
        return ns

    def _scalar_event(self, kind: str, x: int, y: int) -> float:
        if kind == "write":
            return self.write(x, LineData(y))
        if kind == "copy":
            return self.copy(x, y)
        return self.swap(x, y)

    def _replay(
        self,
        pas: np.ndarray,
        datas: np.ndarray,
        moves: Moves,
        out: Optional[np.ndarray],
    ) -> float:
        """Scalar replay of an event list; tags failures with the index of
        the user write their event belongs to."""
        at, swap, a, b = (column.tolist() for column in moves)
        latency = 0.0
        m = 0
        for i in range(pas.size):
            ns = 0.0
            try:
                while m < len(at) and at[m] <= i:
                    kind = "swap" if swap[m] else "copy"
                    ns += self._scalar_event(kind, a[m], b[m])
                    m += 1
                ns += self.write(int(pas[i]), LineData(int(datas[i])))
            except LineFailure as failure:
                if failure.chunk_index is None:
                    failure.chunk_index = i
                raise
            if out is not None:
                out[i] = ns
            latency += ns
        return latency

    def _limit_of(self, pas: np.ndarray) -> Union[float, np.ndarray]:
        if self.endurance_map is None:
            return self.config.endurance
        return self.endurance_map[pas]

    def _store(self, wear_pas: np.ndarray, pas: np.ndarray, datas: np.ndarray) -> None:
        """Wear one write per entry of ``wear_pas`` (duplicates add up) and
        store ``datas`` at ``pas`` in order (a repeated pa keeps its last)."""
        np.add.at(self.wear, wear_pas, 1)
        # numpy fancy-index assignment stores values in index order, so a
        # repeated pa ends up holding its chronologically last value.
        self.data[pas] = datas

    # ---------------------------------------------------- verify / faults

    def _wear_fraction(self, pa: int) -> float:
        return float(self.wear[pa]) / self._endurance_of(pa)

    def _verify_and_retry(self, pa: int, data: LineData) -> float:
        """Program-and-verify tail of one wearing write; returns extra ns.

        Charges the mandatory verify read, then retries the program pulse
        (re-program + re-verify, each wearing the line) while the verify
        keeps failing, up to ``config.max_write_retries`` attempts.  A
        line still failing after the last retry gains a permanent
        stuck-at cell; overflowing the ECP capacity raises
        :class:`UncorrectableError`.
        """
        assert self.faults is not None  # caller gates on faults.verify_armed
        extra = self.timing.read_latency()
        self.elapsed_ns += extra
        retries = 0
        while self.faults.verify_failure(self._wear_fraction(pa), data):
            if retries >= self.config.max_write_retries:
                self._mark_stuck_cell(pa)
                break
            retries += 1
            self.retry_events += 1
            step = self.timing.write_latency(data) + self.timing.read_latency()
            self.elapsed_ns += step
            extra += step
            self._apply_wear(pa)
        return extra

    def _mark_stuck_cell(self, pa: int) -> None:
        assert self.stuck_bits is not None and self.ecc is not None
        self.stuck_bits[pa] += 1
        self.stuck_cell_events += 1
        if int(self.stuck_bits[pa]) > self.config.ecp_entries:
            self.ecc.uncorrectable_total += 1
            failure = UncorrectableError(
                pa=int(pa),
                wear=int(self.wear[pa]),
                total_writes=self.total_writes,
                elapsed_ns=self.elapsed_ns,
                n_errors=int(self.stuck_bits[pa]),
            )
            if self._first_failure is None:
                self._first_failure = failure
            if self.raise_on_failure:
                raise failure

    # --------------------------------------------------------------- wear

    def _apply_wear(self, pa: int) -> None:
        self.wear[pa] += 1
        self.total_writes += 1
        if self.wear[pa] >= self._endurance_of(pa):
            failure = LineFailure(
                pa=int(pa),
                wear=int(self.wear[pa]),
                total_writes=self.total_writes,
                elapsed_ns=self.elapsed_ns,
            )
            if self._first_failure is None:
                self._first_failure = failure
            if self.raise_on_failure:
                raise failure

    def apply_wear_bulk(self, counts: np.ndarray, elapsed_ns: float) -> bool:
        """Apply a dense per-line wear increment atomically, or refuse.

        The fast-forward engine's commit point: ``counts`` is a dense
        ``int64`` array of length ``n_physical`` (one entry per line, zeros
        allowed).  The increment is all-or-nothing — if *any* line would
        reach its endurance limit the call returns ``False`` with **no
        state mutated**, and the caller halves its round and retries (and
        ultimately drops back to the chunk-exact engine, which attributes
        the failing write exactly).  On success wear, ``total_writes``
        (one physical write per unit of wear) and ``elapsed_ns`` advance
        and the call returns ``True``.

        The endurance test reuses the chunk engine's max-based pre-screen:
        far from end-of-life a single ``max`` comparison proves the whole
        increment safe; only near the limit does the exact per-line
        comparison run.  Not supported under fault injection — stuck-bit
        and drift state cannot be advanced in closed form.
        """
        if self.faults is not None:
            raise ValueError(
                "apply_wear_bulk is incompatible with fault injection; "
                "use the chunk-exact engine"
            )
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_physical,):
            raise ValueError(
                f"counts must be dense over {self.n_physical} lines, "
                f"got shape {counts.shape}"
            )
        if counts.min() < 0:
            raise ValueError("negative wear count")
        if self.endurance_map is None:
            # Cheap pre-screen: worst line + worst increment still short of
            # the limit proves every line safe without a dense compare.
            if int(self.wear.max()) + int(counts.max()) >= self.config.endurance:
                if bool(((self.wear + counts) >= self.config.endurance).any()):
                    return False
        else:
            if bool(((self.wear + counts) >= self.endurance_map).any()):
                return False
        self.wear += counts
        self.total_writes += int(counts.sum())
        self.elapsed_ns += float(elapsed_ns)
        return True

    def fill_data(self, value: LineData, end: Optional[int] = None) -> None:
        """Set line contents to ``value`` without wear or latency.

        The fast-forward engine's steady-state data model: once a run of
        analytic rounds begins, every scheme-visible line is assumed to
        hold the trace's write data (the non-differential timing tables
        depend only on the *new* data, so user-write latency is exact; see
        docs/performance.md for the movement-latency model).
        """
        if end is None:
            end = self.n_physical
        self.data[:end] = np.int8(int(value))

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
        """Largest per-line wear count so far."""
        return int(self.wear.max())

    def remaining_endurance(self) -> np.ndarray:
        """Per-line writes remaining before failure (clipped at zero)."""
        limit = (
            self.config.endurance
            if self.endurance_map is None
            else self.endurance_map
        )
        remaining = limit - self.wear
        return np.clip(remaining, 0, None)
