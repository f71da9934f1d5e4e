"""Outside-in layer tracer: wraps bound methods of live instances.

Nothing in the library is instrumented.  The benchmark builds a workload
through public constructors, then :meth:`Tracer.wrap` replaces chosen
methods on *those instances* (an instance attribute shadows the class
method, so calls the library makes through ``self.method`` are traced too)
with a wrapper that records a span: name, start, end and parent.

Aggregates are kept as spans close -- call count, self time (duration
minus the time covered by child spans) and every call's duration, for
totals and percentiles -- so per-layer numbers cover the whole run while
the raw span log keeps only the first ``LOG_CAP`` spans opened.

Because self time is duration minus child durations, the self times of all
spans under one root sum to the root's duration; the tracer's own
bookkeeping between a child's end and its parent's next step lands in the
parent's self time.
"""

from __future__ import annotations

import json
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Raw spans kept in memory (and written by :meth:`Tracer.write_log`).
LOG_CAP = 20_000


class LayerStats:
    """Running aggregates of one span name."""

    __slots__ = ("calls", "self_s", "durations", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")
        self.counters: Dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to a layer-specific counter (e.g. zero returns)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def percentile_us(self, q: int) -> float:
        """The ``q``-th percentile of per-call duration, in microseconds."""
        if len(self.durations) < 2:
            return 1e6 * sum(self.durations)
        return 1e6 * statistics.quantiles(self.durations, n=100)[q - 1]


Observer = Callable[[LayerStats, Tuple[Any, ...], Any], None]


class Tracer:
    """Records nested spans around wrapped methods."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {}
        self.marks: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, float, float, int]] = []
        # Open spans, innermost last: [span id, child time, parent id].
        self._stack: List[List[Any]] = []
        self._next_id = 0

    # ------------------------------------------------------------ spans

    def layer(self, name: str) -> LayerStats:
        """Aggregates of ``name`` (created empty on first use)."""
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def _open(self) -> float:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, 0.0, parent])
        self._next_id += 1
        return perf_counter()

    def _close(self, stats: LayerStats, name: str, start: float) -> None:
        end = perf_counter()
        span_id, child_s, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stats.calls += 1
        stats.self_s += duration - child_s
        stats.durations.append(duration)
        if span_id < LOG_CAP:
            self.spans.append((span_id, name, start, end, parent))

    @contextmanager
    def span(self, name: str) -> Iterator[LayerStats]:
        """Trace the body of a ``with`` block as one span (e.g. the root)."""
        stats = self.layer(name)
        start = self._open()
        try:
            yield stats
        finally:
            self._close(stats, name, start)

    def wrap(
        self, obj: object, method: str, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Trace every call of ``obj.method`` as a span called ``name``.

        ``observe(stats, args, result)`` runs after a call returns, outside
        the span, to count layer-specific outcomes.
        """
        inner = getattr(obj, method)
        stats = self.layer(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = self._open()
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(stats, name, start)
            if observe is not None:
                observe(stats, args, result)
            return result

        setattr(obj, method, traced)

    def wrap_iterator(self, obj: object, method: str, name: str) -> None:
        """Trace each ``next()`` of the iterators ``obj.method()`` returns.

        The first call of ``obj.method`` is marked in :attr:`marks` under
        ``name``, so a caller can time from there to the end of the run.
        """
        inner = getattr(obj, method)
        stats = self.layer(name)

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            self.marks.setdefault(name, perf_counter())
            source = inner(*args, **kwargs)
            while True:
                start = self._open()
                try:
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    self._close(stats, name, start)
                yield item

        setattr(obj, method, traced)

    # ----------------------------------------------------------- output

    def self_total_s(self) -> float:
        """Sum of self time over every span closed so far."""
        return sum(stats.self_s for stats in self.stats.values())

    def write_log(self, path: Path) -> None:
        """Write the raw span log as JSON lines, times relative to span 0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((start for _, _, start, _, _ in self.spans), default=0.0)
        with path.open("w") as handle:
            for span_id, name, start, end, parent in sorted(self.spans):
                record = {
                    "id": span_id,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")
