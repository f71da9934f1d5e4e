"""Synthetic write-trace generators.

Traces come in two granularities sharing one RNG draw discipline:

* *scalar* — lazy iterators of :class:`TraceEntry` (``la`` is always a
  plain ``int``), the interface every attack and the scalar engine use;
* *chunked* — iterators of ``(las, datas)`` numpy array pairs, what the
  vectorized fast engine (:func:`repro.sim.engine.run_trace_fast`)
  consumes without per-entry Python objects.

The scalar generators are thin loops over their chunked twins, so for the
same seed and ``batch`` both granularities draw the *identical* random
stream — an experiment can switch engines without changing its trace.

They model the workload classes the paper's discussion relies on: benign
uniform / skewed (zipf) / sequential traffic, and the degenerate
single-address stream of a Repeated Address Attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.pcm.timing import ALL1, LineData
from repro.util.rng import SeedLike, as_generator

TraceChunk = Tuple[np.ndarray, np.ndarray]

#: log2 of :class:`ZipfSampler`'s guide-table buckets.  A power of two
#: keeps a bucket's bounds ``k / 2**16`` and a draw's bucket
#: ``floor(u * 2**16)`` exact in floating point.
_GUIDE_BITS = 16


@dataclass(frozen=True)
class TraceEntry:
    """One logical write: target address and the data latency class."""

    la: int
    data: LineData = ALL1


# ------------------------------------------------------- chunked traces


def _sizes(n_writes: Optional[int], batch: int) -> Iterator[int]:
    """Chunk sizes covering ``n_writes`` (or forever) in ``batch`` steps."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    count = 0
    while n_writes is None or count < n_writes:
        size = batch if n_writes is None else min(batch, n_writes - count)
        yield size
        count += size


def repeated_address_chunks(
    la: int,
    n_writes: Optional[int] = None,
    data: LineData = ALL1,
    batch: int = 4096,
) -> Iterator[TraceChunk]:
    """Chunked RAA stream: hammer one logical address."""
    for size in _sizes(n_writes, batch):
        yield (
            np.full(size, la, dtype=np.int64),
            np.full(size, int(data), dtype=np.int8),
        )


def sequential_chunks(
    n_lines: int,
    n_writes: Optional[int] = None,
    data: LineData = ALL1,
    batch: int = 4096,
) -> Iterator[TraceChunk]:
    """Chunked round-robin over the address space."""
    count = 0
    for size in _sizes(n_writes, batch):
        las = np.arange(count, count + size, dtype=np.int64) % n_lines
        yield las, np.full(size, int(data), dtype=np.int8)
        count += size


def uniform_random_chunks(
    n_lines: int,
    n_writes: Optional[int] = None,
    data: LineData = ALL1,
    rng: SeedLike = None,
    batch: int = 4096,
) -> Iterator[TraceChunk]:
    """Chunked uniformly random addresses (one RNG draw per chunk)."""
    gen = as_generator(rng)
    for size in _sizes(n_writes, batch):
        las = np.asarray(gen.integers(0, n_lines, size=size), dtype=np.int64)
        yield las, np.full(size, int(data), dtype=np.int8)


class ZipfSampler:
    """Zipf ranks over ``[0, n_lines)``: rank ``r`` with probability
    proportional to ``(r+1)**-alpha`` (:attr:`weights`).

    :meth:`draw` returns what ``gen.choice(n_lines, size, p=weights)``
    returns and leaves ``gen`` in the same state: it makes the same
    ``gen.random(size)`` call and answers ``cdf.searchsorted(u, "right")``
    on the same CDF.  But the CDF is built once, not per call, and a
    guide table of 2^16 buckets answers every draw whose bucket holds no
    CDF step (at ``alpha`` = 1.2, about 94% of draws at 2^12 lines and
    81% at 2^23); only the others are searched.
    """

    def __init__(self, n_lines: int, alpha: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        weights = np.arange(1, n_lines + 1, dtype=np.float64) ** (-alpha)
        #: Per-rank write probabilities.
        self.weights = weights / weights.sum()
        cdf = self.weights.cumsum()  # exactly as Generator.choice builds it
        cdf /= cdf[-1]
        self._cdf = cdf
        # guide[k] = count(cdf <= k / 2**16): a draw u in bucket k has
        # guide[k] <= count(cdf <= u) <= guide[k + 1].
        bounds = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
        self._guide = cdf.searchsorted(bounds, "right").astype(np.int32)

    def draw(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """``size`` ranks drawn from ``gen``, as int64."""
        u = gen.random(size)
        bucket = (u * (1 << _GUIDE_BITS)).astype(np.int64)
        out = self._guide[bucket].astype(np.int64)
        step = out != self._guide[bucket + 1]
        out[step] = self._cdf.searchsorted(u[step], "right")
        return out


def zipf_chunks(
    n_lines: int,
    n_writes: Optional[int] = None,
    alpha: float = 1.2,
    data: LineData = ALL1,
    rng: SeedLike = None,
    batch: int = 4096,
) -> Iterator[TraceChunk]:
    """Chunked Zipf-skewed addresses (one RNG draw per chunk)."""
    sampler = ZipfSampler(n_lines, alpha)
    gen = as_generator(rng)
    for size in _sizes(n_writes, batch):
        yield sampler.draw(gen, size), np.full(size, int(data), dtype=np.int8)


def trace_chunks(
    trace: Iterable[TraceEntry], batch: int = 4096
) -> Iterator[TraceChunk]:
    """Batch any scalar trace into ``(las, datas)`` array chunks.

    The adapter the fast engine applies to traces that only exist in
    scalar form (attack streams, recorded traces); the synthetic
    generators above have native chunked twins that skip the per-entry
    Python objects entirely.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    it = iter(trace)
    while True:
        block = list(islice(it, batch))
        if not block:
            return
        las = np.fromiter(
            (entry.la for entry in block), dtype=np.int64, count=len(block)
        )
        datas = np.fromiter(
            (int(entry.data) for entry in block),
            dtype=np.int8,
            count=len(block),
        )
        yield las, datas


def trace_entries(
    trace: Iterable[Union[TraceEntry, TraceChunk]],
) -> Iterator[TraceEntry]:
    """Unroll either granularity into :class:`TraceEntry` objects.

    The inverse of :func:`trace_chunks`: chunked ``(las, datas)`` streams
    become per-entry streams (``la`` as plain ``int``); entry streams pass
    through untouched.  This is what lets the scalar engine consume a
    trace built for the fast one.
    """
    it = iter(trace)
    try:
        first = next(it)
    except StopIteration:
        return
    stream = chain([first], it)
    if isinstance(first, TraceEntry):
        yield from stream  # type: ignore[misc]
        return
    for las, datas in stream:  # type: ignore[misc]
        for la, data in zip(las.tolist(), datas.tolist()):
            yield TraceEntry(la=la, data=LineData(data))


# -------------------------------------------------------- scalar traces


def _scalar(
    chunks: Iterator[TraceChunk], data: LineData
) -> Iterator[TraceEntry]:
    """Unroll a chunked trace into entries (``la`` as plain ``int``)."""
    for las, _ in chunks:
        for la in las.tolist():  # tolist() yields Python ints, not np.int64
            yield TraceEntry(la=la, data=data)


def repeated_address_trace(
    la: int, n_writes: Optional[int] = None, data: LineData = ALL1
) -> Iterator[TraceEntry]:
    """The RAA stream: hammer one logical address forever (or n_writes)."""
    return _scalar(repeated_address_chunks(la, n_writes, data), data)


def sequential_trace(
    n_lines: int, n_writes: Optional[int] = None, data: LineData = ALL1
) -> Iterator[TraceEntry]:
    """Round-robin over the address space (streaming workload)."""
    return _scalar(sequential_chunks(n_lines, n_writes, data), data)


def uniform_random_trace(
    n_lines: int,
    n_writes: Optional[int] = None,
    data: LineData = ALL1,
    rng: SeedLike = None,
    batch: int = 4096,
) -> Iterator[TraceEntry]:
    """Uniformly random addresses (drawn in batches for speed)."""
    return _scalar(
        uniform_random_chunks(n_lines, n_writes, data, rng, batch), data
    )


def zipf_trace(
    n_lines: int,
    n_writes: Optional[int] = None,
    alpha: float = 1.2,
    data: LineData = ALL1,
    rng: SeedLike = None,
    batch: int = 4096,
) -> Iterator[TraceEntry]:
    """Zipf-skewed addresses — the non-uniform traffic that motivates
    wear leveling in the first place (Section I).

    Rank ``r`` (0-based) is written with probability proportional to
    ``(r+1)**-alpha``; ranks are identity-mapped to addresses so address 0
    is the hottest line.
    """
    return _scalar(
        zipf_chunks(n_lines, n_writes, alpha, data, rng, batch), data
    )
