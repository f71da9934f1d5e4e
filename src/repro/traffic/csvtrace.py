"""Streaming loader for MSR-Cambridge / SNIA-style block-trace CSV.

The format is the one the MSR Cambridge enterprise traces (and most
SNIA IOTTA block traces) use — one I/O per line::

    timestamp,hostname,disk,type,offset,size[,response_time]

``timestamp`` is an opaque tick count, ``type`` is ``Read``/``Write``
(case-insensitive; ``R``/``W`` accepted), ``offset`` and ``size`` are in
bytes.  A header row is tolerated; blank lines are skipped; anything
else malformed raises :class:`~repro.traffic.errors.TraceFileCorruptError`
naming the file and line.  ``.gz`` files (by suffix *or* magic bytes)
are decompressed transparently; a gzip stream that ends early raises
:class:`~repro.traffic.errors.TraceFileTruncatedError`.

Byte offsets are normalised to line addresses: each operation of
``size`` bytes starting at ``offset`` touches the cache lines
``offset // line_bytes .. (offset + size - 1) // line_bytes`` and the
loader emits one write per touched line.  The resulting raw line
addresses are then folded into the simulated device's address space by
an :class:`AddressWindow` (wrap / drop / clamp — see its docstring).

Two granularities, same data: :func:`csv_trace_chunks` yields
``(las, datas)`` numpy pairs for :func:`repro.sim.engine.run_trace_fast`;
:func:`csv_trace_entries` is the scalar unrolling of exactly those
chunks, so the two engines replay the identical stream.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.pcm.timing import ALL1, LineData
from repro.sim.trace import TraceChunk, TraceEntry, trace_entries
from repro.traffic.errors import (
    TraceFileCorruptError,
    TraceFileMissingError,
    TraceFileTruncatedError,
)

PathLike = Union[str, Path]

_GZIP_MAGIC = b"\x1f\x8b"

#: Accepted spellings of the operation-type field.
_WRITE_TYPES = frozenset({"write", "w"})
_READ_TYPES = frozenset({"read", "r"})


@dataclass(frozen=True)
class AddressWindow:
    """Fold raw trace line addresses into ``[0, n_lines)``.

    ``start`` is subtracted first (select a region of the traced disk),
    then ``mode`` decides what happens to addresses outside the window:

    * ``"wrap"``  — modulo ``n_lines`` (default; keeps every write,
      aliases the traced footprint onto the device),
    * ``"drop"``  — out-of-window writes are silently skipped,
    * ``"clamp"`` — out-of-window writes pin to the nearest edge line.
    """

    n_lines: int
    start: int = 0
    mode: str = "wrap"

    def __post_init__(self) -> None:
        if self.n_lines < 1:
            raise ValueError("window needs n_lines >= 1")
        if self.mode not in ("wrap", "drop", "clamp"):
            raise ValueError(
                f"unknown window mode {self.mode!r}; "
                "expected wrap / drop / clamp"
            )

    def apply(self, las: np.ndarray) -> np.ndarray:
        """Map raw line addresses to device addresses (may shrink)."""
        relative = las - self.start
        if self.mode == "wrap":
            return relative % self.n_lines
        if self.mode == "drop":
            return relative[(relative >= 0) & (relative < self.n_lines)]
        return np.clip(relative, 0, self.n_lines - 1)


@dataclass(frozen=True)
class CSVRecord:
    """One parsed trace operation (byte-granular, before windowing)."""

    timestamp: int
    host: str
    disk: int
    is_write: bool
    offset: int
    size: int


def _open_text(path: PathLike) -> IO[str]:
    """Open a trace file for text reading, decompressing gzip if needed."""
    path = Path(path)
    if not path.exists():
        raise TraceFileMissingError(f"{path}: no such trace file")
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if path.suffix == ".gz" or magic == _GZIP_MAGIC:
        if magic != _GZIP_MAGIC:
            raise TraceFileCorruptError(
                f"{path}: .gz suffix but not gzip data"
            )
        return io.TextIOWrapper(
            gzip.open(path, "rb"), encoding="utf-8", newline=""
        )
    return open(path, "r", encoding="utf-8", newline="")


def _looks_like_header(fields: List[str]) -> bool:
    """First data field non-numeric => treat the row as a header."""
    try:
        int(fields[0])
        return False
    except ValueError:
        return True


def _parse_line(
    path: Path, lineno: int, line: str
) -> Optional[CSVRecord]:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) < 6:
        raise TraceFileCorruptError(
            f"{path}:{lineno}: expected >= 6 comma-separated fields "
            f"(timestamp,host,disk,type,offset,size[,...]), got "
            f"{len(fields)}"
        )
    kind = fields[3].lower()
    if kind not in _WRITE_TYPES and kind not in _READ_TYPES:
        raise TraceFileCorruptError(
            f"{path}:{lineno}: operation type {fields[3]!r} is neither "
            "Read nor Write"
        )
    try:
        timestamp = int(fields[0])
        disk = int(fields[2])
        offset = int(fields[4])
        size = int(fields[5])
    except ValueError as exc:
        raise TraceFileCorruptError(
            f"{path}:{lineno}: non-numeric field ({exc})"
        ) from None
    if offset < 0 or size < 0:
        raise TraceFileCorruptError(
            f"{path}:{lineno}: negative offset/size"
        )
    return CSVRecord(
        timestamp=timestamp,
        host=fields[1],
        disk=disk,
        is_write=kind in _WRITE_TYPES,
        offset=offset,
        size=size,
    )


def iter_csv_records(path: PathLike) -> Iterator[CSVRecord]:
    """Stream parsed records; validates the file itself eagerly.

    The file is opened and its compression probed at the *call*, so a
    missing file or a mislabelled ``.gz`` raises here — not on the first
    ``next()`` deep in a replay loop.  Malformed rows and a gzip stream
    that ends mid-member raise during iteration, with the file and line
    in the message — those defects cannot be detected up front without
    reading everything.
    """
    source = Path(path)
    handle = _open_text(source)

    def records() -> Iterator[CSVRecord]:
        lineno = 0
        try:
            with handle:
                for raw in handle:
                    lineno += 1
                    line = raw.strip()
                    if not line:
                        continue
                    if lineno == 1 and _looks_like_header(
                        [f.strip() for f in line.split(",")]
                    ):
                        continue
                    record = _parse_line(source, lineno, line)
                    if record is not None:
                        yield record
        except (EOFError, gzip.BadGzipFile, OSError) as exc:
            raise TraceFileTruncatedError(
                f"{source}: gzip stream ends early at line ~{lineno} "
                f"({type(exc).__name__}: {exc}); re-download or "
                "re-compress the trace"
            ) from exc

    return records()


def csv_trace_chunks(
    path: PathLike,
    *,
    window: AddressWindow,
    line_bytes: int = 64,
    data: LineData = ALL1,
    include_reads: bool = False,
    max_lines_per_op: int = 4096,
    batch: int = 8192,
) -> Iterator[TraceChunk]:
    """Stream a CSV trace as ``(las, datas)`` chunks for the fast engine.

    Each operation expands to one write per touched ``line_bytes``-sized
    line (capped at ``max_lines_per_op`` so a single pathological
    multi-gigabyte I/O cannot flood the stream), then ``window`` folds
    the raw addresses into the device.  Reads are skipped unless
    ``include_reads`` (reads do not wear PCM; including them models a
    write-through controller).
    """
    if line_bytes < 1:
        raise ValueError("line_bytes must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if max_lines_per_op < 1:
        raise ValueError("max_lines_per_op must be >= 1")

    def chunks() -> Iterator[TraceChunk]:
        pending: List[np.ndarray] = []
        pending_n = 0
        for record in iter_csv_records(path):
            if not record.is_write and not include_reads:
                continue
            first = record.offset // line_bytes
            last = (record.offset + max(record.size, 1) - 1) // line_bytes
            count = min(last - first + 1, max_lines_per_op)
            las = window.apply(
                np.arange(first, first + count, dtype=np.int64)
            )
            if las.size == 0:
                continue
            pending.append(las)
            pending_n += int(las.size)
            while pending_n >= batch:
                merged = np.concatenate(pending)
                head, tail = merged[:batch], merged[batch:]
                yield head, np.full(batch, int(data), dtype=np.int8)
                pending = [tail] if tail.size else []
                pending_n = int(tail.size)
        if pending_n:
            merged = np.concatenate(pending)
            yield merged, np.full(merged.size, int(data), dtype=np.int8)

    return chunks()


def csv_trace_entries(
    path: PathLike,
    *,
    window: AddressWindow,
    line_bytes: int = 64,
    data: LineData = ALL1,
    include_reads: bool = False,
    max_lines_per_op: int = 4096,
    batch: int = 8192,
) -> Iterator[TraceEntry]:
    """Scalar twin of :func:`csv_trace_chunks` — the exact unrolling of
    the same chunks, so both engines replay one identical stream."""
    return trace_entries(
        csv_trace_chunks(
            path,
            window=window,
            line_bytes=line_bytes,
            data=data,
            include_reads=include_reads,
            max_lines_per_op=max_lines_per_op,
            batch=batch,
        )
    )


def csv_info(
    path: PathLike, *, line_bytes: int = 64
) -> Tuple[int, int, int, int]:
    """Cheap scan: ``(n_records, n_writes, n_write_lines, max_raw_la)``.

    ``n_write_lines`` counts line-granular writes before windowing (what
    a convert will emit); ``max_raw_la`` bounds the traced footprint.
    """
    if line_bytes < 1:
        raise ValueError("line_bytes must be >= 1")
    n_records = n_writes = n_lines_touched = 0
    max_la = -1
    for record in iter_csv_records(path):
        n_records += 1
        if not record.is_write:
            continue
        n_writes += 1
        first = record.offset // line_bytes
        last = (record.offset + max(record.size, 1) - 1) // line_bytes
        n_lines_touched += last - first + 1
        max_la = max(max_la, last)
    return n_records, n_writes, n_lines_touched, max_la
