"""Failed-line sparing and graceful degradation.

The paper ends a device's life at its first line failure — the right metric
for attack studies (the attacker chooses the weakest point).  Real PCM
parts pair wear leveling with *line sparing*: a pool of spare lines absorbs
failures until it runs dry.  :class:`SparingController` wraps a
:class:`~repro.sim.memory_system.MemoryController` with such a pool, giving
the library a second, capacity-oriented lifetime definition:

* ``first_failure`` — the paper's metric,
* ``spares_exhausted`` — device death after ``n_spares + 1`` line failures,
* ``availability`` — with ``degraded_mode=True`` the device never "dies":
  it drops to read-only once spares run dry, and
  :mod:`repro.analysis.resilience` measures the fraction of the intended
  workload it served.

Retirement absorbs both wear-out (:class:`~repro.pcm.array.LineFailure`)
and ECP-overflow (:class:`~repro.pcm.array.UncorrectableError`) deaths, on
writes and on reads.  Remapped (spared) lines add one indirection on every
access; the remap table is the standard content-addressable structure real
parts use, here a dict.  Spare lines are themselves wear-limited and can
fail and be re-spared.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray, UncorrectableError
from repro.pcm.health import DeviceHealth
from repro.pcm.timing import LineData
from repro.sim.memory_system import MemoryController
from repro.util.rng import SeedLike
from repro.wearlevel.base import Move, WearLeveler


class SparesExhausted(Exception):
    """Raised when a line fails and no spare is left to absorb it."""

    def __init__(
        self, failures: int, total_writes: int, elapsed_ns: float
    ) -> None:
        self.failures = failures
        self.total_writes = total_writes
        self.elapsed_ns = elapsed_ns
        super().__init__(
            f"spare pool exhausted after {failures} line failures "
            f"({total_writes} writes, {elapsed_ns:.0f} ns)"
        )


class DeviceReadOnly(Exception):
    """Write rejected: the device has degraded to read-only mode.

    Raised instead of :class:`SparesExhausted` when the controller was
    built with ``degraded_mode=True``.  The device stays up — reads keep
    being served — and the attached :class:`~repro.pcm.health.DeviceHealth`
    snapshot reports the state instead of a bare stack trace.
    """

    def __init__(self, health: DeviceHealth) -> None:
        self.health = health
        super().__init__(
            f"device is read-only after {health.failures} line failures "
            f"({health.rejected_writes} writes rejected); {health.summary()}"
        )


class SparingController:
    """Memory controller front-end with a failed-line spare pool.

    Parameters
    ----------
    scheme / config:
        As for :class:`~repro.sim.memory_system.MemoryController`.
    n_spares:
        Spare lines appended after the scheme's physical space.
    endurance_variation / rng:
        Per-line endurance process variation, forwarded to the inner
        controller; the spare pool draws from the same distribution.
    fault_rng:
        Seed for the stochastic fault models (see
        :class:`~repro.pcm.faults.FaultModel`).
    degraded_mode:
        If True, exhausting the spare pool drops the device to read-only
        (writes raise :class:`DeviceReadOnly`, reads keep working)
        instead of raising :class:`SparesExhausted`.
    """

    def __init__(
        self,
        scheme: WearLeveler,
        config: PCMConfig,
        n_spares: int = 8,
        endurance_variation: float = 0.0,
        rng: SeedLike = None,
        fault_rng: SeedLike = None,
        degraded_mode: bool = False,
    ) -> None:
        if n_spares < 0:
            raise ValueError("n_spares must be >= 0")
        self.inner = MemoryController(
            scheme,
            config,
            raise_on_failure=True,
            endurance_variation=endurance_variation,
            rng=rng,
            fault_rng=fault_rng,
        )
        # Extend the physical array with the spare pool (wear, data, stuck
        # cells and endurance map all grow consistently).
        self._spare_base = self.inner.array.add_lines(n_spares)
        self.n_spares = n_spares
        self._next_spare = 0
        self.remap_table: Dict[int, int] = {}  # failed pa -> replacement pa
        self.failures = 0
        self.first_failure_writes: Optional[int] = None
        self.first_failure_ns: Optional[float] = None
        self.degraded_mode = degraded_mode
        self.read_only = False
        self.rejected_writes = 0
        #: (total_writes, failed_pa) per retirement — the campaign timeline.
        self.retirement_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------ plumbing

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.inner.config.n_lines:
            raise ValueError(
                f"logical address {la} outside [0, {self.inner.config.n_lines})"
            )

    def _redirect(self, pa: int) -> int:
        while pa in self.remap_table:
            pa = self.remap_table[pa]
        return pa

    def _spare_out(self, failed_pa: int) -> None:
        self.failures += 1
        if self.first_failure_writes is None:
            self.first_failure_writes = self.inner.array.total_writes
            self.first_failure_ns = self.inner.array.elapsed_ns
        if self._next_spare >= self.n_spares:
            if self.degraded_mode:
                self.read_only = True
            raise SparesExhausted(
                failures=self.failures,
                total_writes=self.inner.array.total_writes,
                elapsed_ns=self.inner.array.elapsed_ns,
            )
        replacement = self._spare_base + self._next_spare
        self._next_spare += 1
        self.remap_table[failed_pa] = replacement
        self.retirement_log.append(
            (self.inner.array.total_writes, int(failed_pa))
        )
        # Salvage the content (a real part does this before marking dead).
        array = self.inner.array
        array.data[replacement] = array.data[failed_pa]

    # ----------------------------------------------------------------- API

    def write(self, la: int, data: LineData) -> float:
        """Write through the scheme, absorbing line failures with spares."""
        self._check_la(la)
        if self.read_only:
            self.rejected_writes += 1
            raise DeviceReadOnly(self.health())
        try:
            latency = 0.0
            array = self.inner.array
            for move in self.inner.scheme.record_write(la):
                latency += self._execute_move(move)
            pa = self._redirect(self.inner.scheme.translate(la))
            while True:
                try:
                    latency += array.write(pa, data)
                    return latency
                except LineFailure:
                    self._spare_out(pa)
                    pa = self._redirect(pa)
        except SparesExhausted:
            if self.degraded_mode:
                self.rejected_writes += 1
                raise DeviceReadOnly(self.health()) from None
            raise

    def _execute_move(self, move: Move) -> float:
        from repro.wearlevel.base import CopyMove, SwapMove

        array = self.inner.array
        while True:
            try:
                if isinstance(move, CopyMove):
                    return array.copy(
                        self._redirect(move.src), self._redirect(move.dst)
                    )
                if isinstance(move, SwapMove):
                    return array.swap(
                        self._redirect(move.pa_a), self._redirect(move.pa_b)
                    )
                raise TypeError(f"unknown move {move!r}")
            except LineFailure as failure:
                self._spare_out(failure.pa)

    def read(self, la: int) -> Tuple[LineData, float]:
        """Read ``la``; uncorrectable lines are retired through the pool.

        In ``degraded_mode`` an uncorrectable read that finds the pool dry
        re-raises the :class:`~repro.pcm.array.UncorrectableError` (that
        data is genuinely lost) but leaves the device serving other lines.
        """
        self._check_la(la)
        pa = self._redirect(self.inner.scheme.translate(la))
        while True:
            try:
                return self.inner.array.read_with_latency(pa)
            except UncorrectableError as failure:
                try:
                    self._spare_out(pa)
                except SparesExhausted:
                    if self.degraded_mode:
                        raise failure from None
                    raise
                pa = self._redirect(pa)

    # ------------------------------------------------------------- queries

    @property
    def scheme(self) -> WearLeveler:
        return self.inner.scheme

    @property
    def array(self) -> PCMArray:
        return self.inner.array

    @property
    def elapsed_ns(self) -> float:
        return self.inner.elapsed_ns

    @property
    def total_writes(self) -> int:
        return self.inner.total_writes

    @property
    def spares_left(self) -> int:
        return self.n_spares - self._next_spare

    def health(self) -> DeviceHealth:
        """Structured health report for the whole device."""
        array = self.inner.array
        return DeviceHealth(
            n_lines=self.inner.config.n_lines,
            n_physical=array.n_physical,
            total_writes=array.total_writes,
            elapsed_ns=array.elapsed_ns,
            max_wear=array.max_wear,
            failures=self.failures,
            retired_lines=len(self.remap_table),
            n_spares=self.n_spares,
            spares_left=self.spares_left,
            read_only=self.read_only,
            retry_events=array.retry_events,
            stuck_cells=int(array.stuck_bits.sum())
            if array.stuck_bits is not None
            else 0,
            corrected_errors=array.ecc.corrected_total if array.ecc else 0,
            uncorrectable_errors=array.ecc.uncorrectable_total
            if array.ecc
            else 0,
            rejected_writes=self.rejected_writes,
        )
