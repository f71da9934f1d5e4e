"""Exact per-write simulation drivers and lifetime measurement.

Two drivers, one result type:

* :func:`run_trace` — the scalar reference: one Python call chain per
  logical write.
* :func:`run_trace_fast` — the chunked fast path: hands whole trace
  chunks to :meth:`MemoryController.write_chunk`, which applies the
  scheme's windows — user writes and remap movements in order — as
  numpy array operations (schemes without a closed-form walk take each
  write that may remap through the scalar ``record_write``).
  Bit-identical to :func:`run_trace`: same ``elapsed_ns``,
  ``total_writes``, per-line wear, failure PA, and RNG stream.  See
  ``docs/performance.md``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Union

from dataclasses import dataclass

from repro.pcm.array import LineFailure
from repro.sim.fastforward import TraceSpec, fast_forward_engaged, run_fast_forward
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceChunk, TraceEntry, trace_chunks


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of driving a controller with a write stream."""

    user_writes: int  #: logical writes issued before stopping
    total_writes: int  #: physical writes including remap movements
    elapsed_ns: float  #: simulated time
    failed: bool  #: True if a line exhausted its endurance
    failed_pa: Optional[int] = None  #: physical address of the first failure

    @property
    def lifetime_seconds(self) -> float:
        """Simulated seconds until the stream ended or the device failed."""
        return self.elapsed_ns * 1e-9

    @property
    def write_amplification(self) -> float:
        """Physical writes per user write (wear-leveling overhead + 1)."""
        if self.user_writes == 0:
            return 0.0
        return self.total_writes / self.user_writes


def run_trace(
    controller: MemoryController,
    trace: Union[Iterable[TraceEntry], TraceSpec],
    max_writes: Optional[int] = None,
) -> SimulationResult:
    """Drive the controller with ``trace`` until it ends, fails, or hits
    ``max_writes`` user writes."""
    if isinstance(trace, TraceSpec):
        trace = trace.entries()
    user_writes = 0
    try:
        for entry in trace:
            if max_writes is not None and user_writes >= max_writes:
                break
            # reprolint: disable=REP002 trace replay; elapsed_ns accounts it
            controller.write(entry.la, entry.data)
            user_writes += 1
    except LineFailure as failure:
        return SimulationResult(
            user_writes=user_writes + 1,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=True,
            failed_pa=failure.pa,
        )
    return SimulationResult(
        user_writes=user_writes,
        total_writes=controller.total_writes,
        elapsed_ns=controller.elapsed_ns,
        failed=False,
    )


FastTrace = Union[Iterable[TraceEntry], Iterable[TraceChunk], TraceSpec]


def _as_chunks(trace: FastTrace, batch: int) -> Iterator[TraceChunk]:
    """Accept any granularity: entry streams are batched, chunked streams
    pass through untouched, trace specs expand to their chunk stream."""
    if isinstance(trace, TraceSpec):
        return trace.chunks()
    it = iter(trace)
    try:
        first = next(it)
    except StopIteration:
        return iter(())
    rest = chain([first], it)
    if isinstance(first, TraceEntry):
        return trace_chunks(rest, batch=batch)
    return rest  # type: ignore[return-value]


def run_trace_fast(
    controller: MemoryController,
    trace: FastTrace,
    max_writes: Optional[int] = None,
    *,
    batch: int = 8192,
    fast_forward: str = "off",
) -> SimulationResult:
    """Chunked twin of :func:`run_trace`; bit-identical results.

    ``trace`` may be a scalar :class:`TraceEntry` stream (batched here
    via :func:`repro.sim.trace.trace_chunks` into chunks of ``batch``
    writes), a native chunked stream of ``(las, datas)`` arrays (e.g.
    ``uniform_random_chunks``), which skips per-entry Python objects
    entirely and keeps its own chunking, or a
    :class:`~repro.sim.fastforward.TraceSpec` naming a distribution.  A
    spec is cut at its own ``spec.batch``, because its random stream
    depends on that size, so for a spec ``batch`` only sets the
    fast-forward drop-back floor (:func:`~repro.sim.fastforward.
    run_fast_forward`).

    Each chunk goes to ``controller.write_chunk`` whole (cut only at
    ``max_writes``).  The scheme walks it as windows of ordered events
    (``chunk_runs``), so remap movements and every RNG draw happen in
    exactly the scalar order.  Failures mid-chunk are attributed to the
    precise failing write via ``LineFailure.chunk_index``.

    ``fast_forward`` selects the analytic third tier (requires a
    :class:`TraceSpec` trace): ``"off"`` (default — preserves the
    bit-identity contract above), ``"auto"`` (engage at paper-like scale
    when the scheme and configuration allow; fall through to chunk-exact
    otherwise), or ``"analytic"`` (engage whenever possible, for
    validation runs).  See :mod:`repro.sim.fastforward`.
    """
    if fast_forward_engaged(controller, trace, fast_forward):
        assert isinstance(trace, TraceSpec)
        return run_fast_forward(controller, trace, max_writes, batch=batch)
    user_writes = 0
    try:
        for las, datas in _as_chunks(trace, batch):
            if max_writes is not None:
                room = max_writes - user_writes
                if room <= 0:
                    break
                las, datas = las[:room], datas[:room]
            _, n = controller.write_chunk(las, datas)
            user_writes += n
    except LineFailure as failure:
        assert failure.chunk_index is not None
        return SimulationResult(
            user_writes=user_writes + failure.chunk_index + 1,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=True,
            failed_pa=failure.pa,
        )
    return SimulationResult(
        user_writes=user_writes,
        total_writes=controller.total_writes,
        elapsed_ns=controller.elapsed_ns,
        failed=False,
    )


def run_until_failure(
    controller: MemoryController,
    trace: Iterable[TraceEntry],
    max_writes: int = 10_000_000,
) -> SimulationResult:
    """Like :func:`run_trace` but raises if the stream outlives ``max_writes``
    without wearing the device out — lifetime experiments must fail."""
    result = run_trace(controller, trace, max_writes=max_writes)
    if not result.failed:
        raise RuntimeError(
            f"device did not fail within {max_writes} writes; "
            "increase max_writes or reduce endurance for this experiment"
        )
    return result
