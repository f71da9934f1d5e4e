"""Multi-tenant traffic synthesis: thousands of tenants, one controller.

A :class:`TenantMixer` multiplexes many independent tenants — each with
its own access pattern (zipf / uniform / sequential), its own address
window, its own arrival-rate schedule (optionally diurnal) — through a
single deterministic interleaver.  This is the "millions of users"
traffic model the ROADMAP north-star asks for, and the shared-controller
substrate cross-tenant timing attacks need.

Determinism contract (the PR-5 chunked-generator contract, extended):

* Every random stream derives from one root seed via
  :func:`repro.util.rng.derive_seed` — the interleaver, each tenant's
  address draws, churn selection and window placement all get their own
  independent child streams, so adding a tenant never perturbs another
  tenant's addresses.
* :meth:`TenantMixer.chunks` and :meth:`TenantMixer.entries` emit the
  *identical* write stream for the same ``(n_writes, batch)`` — the
  scalar form is literally the unrolled chunks — so the batched and
  scalar engines replay one stream and report identical
  ``elapsed_ns``/wear.
* Each call restarts from the root seed: a mixer is a reusable factory,
  not a consumable iterator.

Virtual time is the write index: arrival-rate schedules and churn are
evaluated against "writes so far", which keeps the stream independent
of any host clock (reprolint REP005 territory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.pcm.timing import ALL1, LineData
from repro.sim.trace import TraceChunk, TraceEntry, trace_entries
from repro.util.rng import as_generator, derive_seed

_KINDS = ("zipf", "uniform", "sequential")

#: Floor for per-tenant arrival weights: a diurnal trough or churn must
#: never zero a tenant out entirely (choice() needs a valid distribution
#: and "idle" tenants still trickle requests in production).
_MIN_WEIGHT = 1e-9


@dataclass(frozen=True)
class TenantProfile:
    """One tenant: access pattern, address window, arrival schedule.

    ``window_start``/``window_len`` bound the tenant to its own region
    of the logical address space (tenants may overlap — shared pages —
    or partition it).  ``rate`` is the tenant's base arrival weight;
    with ``diurnal_period > 0`` the effective weight swings as
    ``rate * (1 + diurnal_amplitude * sin(2*pi*(t/period + phase)))``
    where ``t`` is the virtual write clock.
    """

    kind: str
    window_start: int
    window_len: int
    alpha: float = 1.2
    rate: float = 1.0
    diurnal_amplitude: float = 0.0
    diurnal_period: int = 0
    diurnal_phase: float = 0.0
    data: LineData = ALL1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown tenant kind {self.kind!r}; expected one of "
                f"{_KINDS}"
            )
        if self.window_len < 1:
            raise ValueError("tenant window_len must be >= 1")
        if self.window_start < 0:
            raise ValueError("tenant window_start must be >= 0")
        if self.kind == "zipf" and self.alpha <= 0:
            raise ValueError("zipf tenants need alpha > 0")
        if self.rate <= 0:
            raise ValueError("tenant rate must be > 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.diurnal_period < 0:
            raise ValueError("diurnal_period must be >= 0")


class TenantMixer:
    """Deterministic interleaver over a tenant population.

    Parameters
    ----------
    profiles:
        The tenant population (order is identity: tenant ``i`` always
        draws from the ``derive_seed(seed, "tenant", i)`` stream).
    seed:
        Root seed; every internal stream derives from it.
    churn_interval:
        Every this-many writes, a fresh hot set is drawn and those
        tenants' arrival weights are multiplied by ``churn_boost``
        (0 disables churn).
    churn_fraction:
        Fraction of tenants in the hot set.
    schedule_interval:
        How often (in writes) diurnal arrival weights are re-evaluated.
        Chunks never straddle a schedule or churn boundary, so the
        scalar unrolling sees weight changes at the same write index.
    """

    def __init__(
        self,
        profiles: Sequence[TenantProfile],
        *,
        seed: int,
        churn_interval: int = 0,
        churn_fraction: float = 0.02,
        churn_boost: float = 8.0,
        schedule_interval: int = 8192,
    ) -> None:
        if not profiles:
            raise ValueError("mixer needs at least one tenant profile")
        if churn_interval < 0:
            raise ValueError("churn_interval must be >= 0")
        if not 0.0 <= churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be in [0, 1]")
        if churn_boost <= 0:
            raise ValueError("churn_boost must be > 0")
        if schedule_interval < 1:
            raise ValueError("schedule_interval must be >= 1")
        self.profiles: Tuple[TenantProfile, ...] = tuple(profiles)
        self.seed = int(seed)
        self.churn_interval = int(churn_interval)
        self.churn_fraction = float(churn_fraction)
        self.churn_boost = float(churn_boost)
        self.schedule_interval = int(schedule_interval)
        self._base_rates = np.array(
            [p.rate for p in self.profiles], dtype=np.float64
        )
        self._datas = np.array(
            [int(p.data) for p in self.profiles], dtype=np.int8
        )
        # Shared zipf rank-probability vectors, keyed (window_len, alpha):
        # thousands of tenants typically reuse a handful of shapes.
        self._zipf_cache: Dict[Tuple[int, float], np.ndarray] = {}

    @property
    def n_tenants(self) -> int:
        return len(self.profiles)

    @property
    def span_lines(self) -> int:
        """Highest logical address any tenant can emit, plus one."""
        return max(p.window_start + p.window_len for p in self.profiles)

    # ----------------------------------------------------------- streams

    def chunks(
        self,
        n_writes: Optional[int] = None,
        *,
        batch: int = 8192,
    ) -> Iterator[TraceChunk]:
        """Chunked mixed-traffic stream for the batched engine.

        Restarts from the root seed on every call.  Chunk boundaries are
        cut at ``batch``, schedule-interval and churn-interval edges —
        never mid-epoch — so the stream is a pure function of
        ``(profiles, seed, n_writes, batch)``.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        return self._generate(n_writes, batch)

    def entries(
        self,
        n_writes: Optional[int] = None,
        *,
        batch: int = 8192,
    ) -> Iterator[TraceEntry]:
        """Scalar twin of :meth:`chunks` — the exact unrolled stream."""
        return trace_entries(self.chunks(n_writes, batch=batch))

    # ---------------------------------------------------------- internals

    def _zipf_probabilities(self, window_len: int, alpha: float) -> np.ndarray:
        key = (window_len, alpha)
        probabilities = self._zipf_cache.get(key)
        if probabilities is None:
            weights = np.arange(
                1, window_len + 1, dtype=np.float64
            ) ** (-alpha)
            probabilities = weights / weights.sum()
            self._zipf_cache[key] = probabilities
        return probabilities

    def _weights_at(
        self, t: int, hot_boost: np.ndarray
    ) -> np.ndarray:
        """Arrival probabilities at virtual time ``t`` (one per tenant)."""
        rates = self._base_rates.copy()
        for i, profile in enumerate(self.profiles):
            if profile.diurnal_period > 0:
                phase = t / profile.diurnal_period + profile.diurnal_phase
                rates[i] *= 1.0 + profile.diurnal_amplitude * np.sin(
                    2.0 * np.pi * phase
                )
        rates = np.maximum(rates * hot_boost, _MIN_WEIGHT)
        return rates / rates.sum()

    def _draw_addresses(
        self,
        tenant: int,
        count: int,
        rng: np.random.Generator,
        seq_pos: np.ndarray,
    ) -> np.ndarray:
        profile = self.profiles[tenant]
        start, width = profile.window_start, profile.window_len
        if profile.kind == "uniform":
            return start + rng.integers(0, width, size=count, dtype=np.int64)
        if profile.kind == "zipf":
            ranks = rng.choice(
                width,
                size=count,
                p=self._zipf_probabilities(width, profile.alpha),
            )
            return start + np.asarray(ranks, dtype=np.int64)
        # sequential: a persistent cursor, no RNG draw at all
        position = int(seq_pos[tenant])
        addresses = start + (
            (position + np.arange(count, dtype=np.int64)) % width
        )
        seq_pos[tenant] = (position + count) % width
        return addresses

    def _generate(
        self, n_writes: Optional[int], batch: int
    ) -> Iterator[TraceChunk]:
        mixer_rng = as_generator(derive_seed(self.seed, "mixer"))
        churn_rng = as_generator(derive_seed(self.seed, "churn"))
        tenant_rngs: List[np.random.Generator] = [
            as_generator(derive_seed(self.seed, "tenant", i))
            for i in range(self.n_tenants)
        ]
        seq_pos = np.zeros(self.n_tenants, dtype=np.int64)
        hot_boost = np.ones(self.n_tenants, dtype=np.float64)
        probabilities = np.empty(0, dtype=np.float64)
        t = 0
        while n_writes is None or t < n_writes:
            if self.churn_interval and t % self.churn_interval == 0:
                hot_boost = np.ones(self.n_tenants, dtype=np.float64)
                n_hot = max(
                    1, int(round(self.churn_fraction * self.n_tenants))
                )
                hot = churn_rng.choice(
                    self.n_tenants, size=min(n_hot, self.n_tenants),
                    replace=False,
                )
                hot_boost[hot] = self.churn_boost
                probabilities = np.empty(0, dtype=np.float64)
            if t % self.schedule_interval == 0 or probabilities.size == 0:
                probabilities = self._weights_at(t, hot_boost)
            size = batch if n_writes is None else min(batch, n_writes - t)
            size = min(
                size, self.schedule_interval - t % self.schedule_interval
            )
            if self.churn_interval:
                size = min(
                    size, self.churn_interval - t % self.churn_interval
                )
            tenant_ids = np.asarray(
                mixer_rng.choice(
                    self.n_tenants, size=size, p=probabilities
                ),
                dtype=np.int64,
            )
            las = np.empty(size, dtype=np.int64)
            order = np.argsort(tenant_ids, kind="stable")
            sorted_ids = tenant_ids[order]
            uniques, starts = np.unique(sorted_ids, return_index=True)
            bounds = np.append(starts, size)
            for which, tenant in enumerate(uniques.tolist()):
                slots = order[bounds[which]:bounds[which + 1]]
                las[slots] = self._draw_addresses(
                    tenant, int(slots.size), tenant_rngs[tenant], seq_pos
                )
            yield las, self._datas[tenant_ids]
            t += size
