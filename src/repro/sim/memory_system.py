"""Memory controller: binds a wear-leveling scheme to a PCM array.

The controller is the attacker's only interface in the exact simulations:
``write(la, data)`` returns the observed latency, which includes the latency
of any remap movement the write triggered — the paper's premise that
"remapping halts other requests until it is completed thus incurs extra
latency to the request which happens just following the remapping".

``write_chunk(las, datas)`` is the batched twin the chunk engine drives:
it walks the scheme's windows (:meth:`~repro.wearlevel.base.
WearLeveler.chunk_runs`) and applies each, user writes and remap
movements in order, with one ``write_events`` on the array (or, for a
scheme without a closed-form walk, a write that may remap through
``write``), so a whole chunk is one call and bit-identical to as many
``write`` calls.  Given an ``out`` array it also reports each write's
latency, which is how the attacks observe a chunk.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.health import DeviceHealth
from repro.pcm.timing import LineData
from repro.util.rng import SeedLike
from repro.wearlevel.base import SCALAR_WRITE, CopyMove, SwapMove, WearLeveler


class MemoryController:
    """Executes logical reads/writes through a wear-leveling scheme.

    Parameters
    ----------
    scheme:
        Any :class:`~repro.wearlevel.base.WearLeveler`; its ``n_lines`` must
        match ``config.n_lines``.
    config:
        PCM device parameters.
    raise_on_failure:
        Forwarded to :class:`~repro.pcm.array.PCMArray`; when True (default)
        the first worn-out line raises
        :class:`~repro.pcm.array.LineFailure`, ending a lifetime experiment.
    """

    def __init__(
        self,
        scheme: WearLeveler,
        config: PCMConfig,
        raise_on_failure: bool = True,
        initial_data: LineData = LineData.ALL0,
        endurance_variation: float = 0.0,
        rng: SeedLike = None,
        fault_rng: SeedLike = None,
    ) -> None:
        if scheme.n_lines != config.n_lines:
            raise ValueError(
                f"scheme exposes {scheme.n_lines} lines but config declares "
                f"{config.n_lines}"
            )
        self.scheme = scheme
        self.config = config
        self.array = PCMArray(
            config,
            n_physical=scheme.n_physical,
            initial_data=initial_data,
            raise_on_failure=raise_on_failure,
            endurance_variation=endurance_variation,
            rng=rng,
            fault_rng=fault_rng,
        )

    # ----------------------------------------------------------------- API

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.config.n_lines:
            raise ValueError(
                f"logical address {la} outside [0, {self.config.n_lines})"
            )

    def write(self, la: int, data: LineData) -> float:
        """Write ``data`` to logical line ``la``; return observed latency (ns).

        Any remap movements triggered by this write execute first and their
        latency is folded into the returned value — this is the remapping
        side channel.
        """
        self._check_la(la)
        latency = 0.0
        for move in self.scheme.record_write(la):
            if isinstance(move, CopyMove):
                latency += self.array.copy(move.src, move.dst)
            elif isinstance(move, SwapMove):
                latency += self.array.swap(move.pa_a, move.pa_b)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown move type {type(move)!r}")
        pa = self.scheme.translate(la)
        latency += self.array.write(pa, data)
        return latency

    def write_chunk(
        self,
        las: np.ndarray,
        datas: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[float, int]:
        """Write a whole chunk; bit-identical to one :meth:`write` per entry.

        Each window of the scheme's walk goes to the array in one
        :meth:`~repro.pcm.array.PCMArray.write_events`: its user
        writes and the remap movements between them, in scalar order, so
        each movement's latency still lands on the write that triggered
        it.  The window is then committed, or on a
        :class:`~repro.pcm.array.LineFailure` only up to the failing
        write, whose position in the chunk the failure carries as
        ``chunk_index``.  The base walk's
        :data:`~repro.wearlevel.base.SCALAR_WRITE` windows go through
        :meth:`write` instead.  Returns ``(latency_ns, len(las))``.

        ``out``, a float64 array of ``len(las)``, receives each write's
        observed latency, exactly what :meth:`write` returns for it (its
        remap movements included): the per-write side channel.  After a
        :class:`~repro.pcm.array.LineFailure` only the entries before
        ``chunk_index`` are set.  Without ``out`` nothing per write is
        computed.
        """
        las = np.asarray(las, dtype=np.int64)
        datas = np.asarray(datas)
        size = int(las.size)
        if datas.size != size:
            raise ValueError(
                f"chunk has {size} addresses but {datas.size} data values"
            )
        if out is not None and out.shape != (size,):
            raise ValueError(f"out has shape {out.shape}, expected ({size},)")
        if size and (int(las.min()) < 0 or int(las.max()) >= self.config.n_lines):
            bad = las[(las < 0) | (las >= self.config.n_lines)][0]
            self._check_la(int(bad))
        latency = 0.0
        pos = 0
        for window in self.scheme.chunk_runs(las):
            if window is SCALAR_WRITE:
                try:
                    ns = self.write(int(las[pos]), LineData(int(datas[pos])))
                except LineFailure as failure:
                    failure.chunk_index = pos
                    raise
                if out is not None:
                    out[pos] = ns
                latency += ns
                pos += 1
                continue
            n = int(window.pas.size)
            try:
                latency += self.array.write_events(
                    window.pas,
                    datas[pos : pos + n],
                    window.moves,
                    None if out is None else out[pos : pos + n],
                )
            except LineFailure as failure:
                assert failure.chunk_index is not None
                window.commit(failure.chunk_index + 1)
                failure.chunk_index += pos
                raise
            window.commit(n)
            pos += n
        return latency, size

    def read(self, la: int) -> Tuple[LineData, float]:
        """Read logical line ``la``; return ``(data, latency_ns)``.

        The latency includes any ECP correction cost the read incurred;
        without fault injection it is exactly ``config.read_ns``.
        """
        self._check_la(la)
        pa = self.scheme.translate(la)
        return self.array.read_with_latency(pa)

    # ------------------------------------------------------------- queries

    def baseline_write_latency(self, data: LineData) -> float:
        """Latency of a write that triggers no remap (attacker's reference)."""
        return self.array.timing.write_latency(data)

    @property
    def elapsed_ns(self) -> float:
        """Simulated time spent in PCM operations so far."""
        return self.array.elapsed_ns

    @property
    def total_writes(self) -> int:
        """Total physical line writes (user writes + remap movements)."""
        return self.array.total_writes

    def health(self) -> DeviceHealth:
        """Structured health snapshot (no spare pool at this level)."""
        array = self.array
        return DeviceHealth(
            n_lines=self.config.n_lines,
            n_physical=array.n_physical,
            total_writes=array.total_writes,
            elapsed_ns=array.elapsed_ns,
            max_wear=array.max_wear,
            failures=1 if array.failed else 0,
            retired_lines=0,
            n_spares=0,
            spares_left=0,
            read_only=False,
            retry_events=array.retry_events,
            stuck_cells=int(array.stuck_bits.sum())
            if array.stuck_bits is not None
            else 0,
            corrected_errors=array.ecc.corrected_total if array.ecc else 0,
            uncorrectable_errors=array.ecc.uncorrectable_total
            if array.ecc
            else 0,
            rejected_writes=0,
        )
