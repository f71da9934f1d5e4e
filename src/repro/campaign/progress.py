"""Live campaign progress: done/total, throughput and ETA on stderr.

Orchestration-side instrumentation only — wall-clock time here measures
the *host*, never the simulated device, so REP005 is suppressed
file-wide on purpose (simulated time stays the exclusive business of
``elapsed_ns`` inside the simulator).
"""
# reprolint: disable-file=REP005 host-side throughput/ETA, not simulated time

from __future__ import annotations

import sys
import time
from typing import IO, Optional


class ProgressReporter:
    """Rate-limited one-line progress reports (``tasks/s``, ETA).

    On a TTY the line redraws in place via ``\\r``; on a pipe (CI logs)
    it prints at most one full line per ``min_interval_s`` so logs stay
    readable.  ``enabled=False`` turns the reporter into a no-op, which
    keeps library callers (``attack_matrix`` etc.) silent by default.
    """

    def __init__(
        self,
        total: int,
        *,
        stream: Optional[IO[str]] = None,
        enabled: bool = True,
        min_interval_s: float = 0.5,
    ) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self._stream = sys.stderr if stream is None else stream
        self._enabled = enabled and total > 0
        self._min_interval_s = min_interval_s
        self._start = time.monotonic()
        self._last_emit = 0.0
        self._wrote_any = False
        self._final_emitted = False

    def task_done(self, ok: bool) -> None:
        """Account one finished task and maybe redraw the status line."""
        self.done += 1
        if not ok:
            self.failed += 1
        self._emit(final=self.done >= self.total)

    def finish(self) -> None:
        """Force a final report and terminate the in-place line."""
        if self._enabled and self._wrote_any:
            self._emit(final=True)

    # ------------------------------------------------------------ intern

    def _render(self) -> str:
        elapsed = max(time.monotonic() - self._start, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        pct = 100.0 * self.done / self.total
        line = (
            f"[{self.done}/{self.total}] {pct:5.1f}%  "
            f"{rate:6.2f} tasks/s  eta {eta:6.1f}s"
        )
        if self.failed:
            line += f"  failed {self.failed}"
        return line

    def _emit(self, final: bool) -> None:
        if not self._enabled or self._final_emitted:
            return
        now = time.monotonic()
        if not final and now - self._last_emit < self._min_interval_s:
            return
        self._last_emit = now
        self._final_emitted = final
        line = self._render()
        if self._stream.isatty():
            self._stream.write("\r" + line + ("\n" if final else ""))
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
        self._wrote_any = True
