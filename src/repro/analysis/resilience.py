"""Fault-injection campaigns and the verify-retry side channel.

Two drivers on top of the resilience stack (:mod:`repro.pcm.faults`,
:mod:`repro.pcm.ecc`, :class:`~repro.pcm.sparing.SparingController`):

* :func:`run_fault_campaign` / :func:`sweep_fault_rates` — hammer a device
  with a seeded, skewed workload under injected faults and report how it
  degrades: retirement timeline, availability (fraction of the intended
  workload served before read-only), and the final
  :class:`~repro.pcm.health.DeviceHealth`.  Campaigns are deterministic:
  the same seed and config replay the identical timeline.

* :func:`verify_retry_side_channel` — the "mitigations backfire"
  experiment: with a nonzero verify-failure rate, the write-verify-retry
  loop makes write latency depend on the target line's *wear* (failure
  probability rises with wear) and *data* (RESET-only programs fail less),
  opening a timing side channel alongside the paper's remap channel — an
  attacker can profile which lines are near death.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import PCMConfig
from repro.pcm.array import LineFailure, PCMArray
from repro.pcm.health import DeviceHealth
from repro.pcm.sparing import (
    DeviceReadOnly,
    SparesExhausted,
    SparingController,
)
from repro.pcm.timing import ALL0, ALL1, MIXED, LineData
from repro.util.rng import as_generator


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one fault-injection campaign on one scheme."""

    scheme: str
    verify_fail_base: float
    read_disturb_ber: float
    seed: int
    #: writes the workload intended to issue / writes the device served
    writes_attempted: int
    writes_accepted: int
    #: device writes at the first line failure (None if none occurred)
    first_failure_write: Optional[int]
    #: workload index at which the device stopped accepting writes
    end_write: Optional[int]
    #: ``survived`` | ``read-only`` | ``spares-exhausted``
    end_cause: str
    #: fraction of the intended workload served — the availability metric
    availability: float
    #: (device_total_writes, failed_pa) per retirement, in order
    retirements: Tuple[Tuple[int, int], ...]
    health: DeviceHealth


def run_fault_campaign(
    scheme_name: str,
    config: PCMConfig,
    *,
    n_spares: int = 8,
    n_writes: int = 20_000,
    seed: int = 0,
    degraded_mode: bool = True,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.8,
    read_fraction: float = 0.1,
) -> CampaignResult:
    """Run one seeded fault-injection campaign.

    The workload is skewed — ``hot_weight`` of the writes land on the
    hottest ``hot_fraction`` of the logical space — so wear concentrates
    and the fault ladder (retries → stuck cells → retirement → read-only)
    is exercised within a tractable write budget.  Each write is followed
    by a read with probability ``read_fraction``, which drives the
    read-disturb / ECP-correction path.  Scheme construction, workload
    addresses/data and fault draws all derive from ``seed``.
    """
    from repro.experiments import SCHEME_FACTORIES

    if scheme_name not in SCHEME_FACTORIES:
        raise ValueError(
            f"unknown scheme {scheme_name!r}; "
            f"choose from {sorted(SCHEME_FACTORIES)}"
        )
    scheme = SCHEME_FACTORIES[scheme_name](config.n_lines, seed)
    controller = SparingController(
        scheme,
        config,
        n_spares=n_spares,
        fault_rng=seed,
        degraded_mode=degraded_mode,
    )
    workload = as_generator(seed)
    hot_lines = max(1, int(hot_fraction * config.n_lines))
    accepted = 0
    end_write: Optional[int] = None
    cause = "survived"
    for i in range(n_writes):
        if workload.random() < hot_weight:
            la = int(workload.integers(0, hot_lines))
        else:
            la = int(workload.integers(0, config.n_lines))
        data = MIXED if workload.random() < 0.5 else ALL0
        try:
            # reprolint: disable=REP002 availability campaign; not a timing run
            controller.write(la, data)
            accepted += 1
        except DeviceReadOnly:
            end_write, cause = i, "read-only"
            break
        except SparesExhausted:
            end_write, cause = i, "spares-exhausted"
            break
        if read_fraction and workload.random() < read_fraction:
            try:
                controller.read(int(workload.integers(0, config.n_lines)))
            except (SparesExhausted, LineFailure):
                # A read-side retirement can drain the pool; the campaign
                # keeps writing until a *write* is refused.
                pass
    return CampaignResult(
        scheme=scheme_name,
        verify_fail_base=config.verify_fail_base,
        read_disturb_ber=config.read_disturb_ber,
        seed=seed,
        writes_attempted=n_writes,
        writes_accepted=accepted,
        first_failure_write=controller.first_failure_writes,
        end_write=end_write,
        end_cause=cause,
        availability=accepted / n_writes if n_writes else 1.0,
        retirements=tuple(controller.retirement_log),
        health=controller.health(),
    )


def _campaign_result_from_dict(
    document: Mapping[str, Any]
) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from a ``faults`` task result."""
    first_failure = document["first_failure_write"]
    end_write = document["end_write"]
    return CampaignResult(
        scheme=str(document["scheme"]),
        verify_fail_base=float(document["verify_fail_base"]),  # type: ignore[arg-type]
        read_disturb_ber=float(document["read_disturb_ber"]),  # type: ignore[arg-type]
        seed=int(document["seed"]),  # type: ignore[arg-type]
        writes_attempted=int(document["writes_attempted"]),  # type: ignore[arg-type]
        writes_accepted=int(document["writes_accepted"]),  # type: ignore[arg-type]
        first_failure_write=(
            None if first_failure is None else int(first_failure)  # type: ignore[arg-type]
        ),
        end_write=None if end_write is None else int(end_write),  # type: ignore[arg-type]
        end_cause=str(document["end_cause"]),
        availability=float(document["availability"]),  # type: ignore[arg-type]
        retirements=tuple(
            (int(writes), int(pa))
            for writes, pa in document["retirements"]  # type: ignore[union-attr]
        ),
        health=DeviceHealth(**document["health"]),  # type: ignore[arg-type]
    )


def sweep_fault_rates(
    schemes: Sequence[str],
    config: PCMConfig,
    verify_fail_rates: Sequence[float],
    *,
    n_spares: int = 8,
    n_writes: int = 20_000,
    seed: int = 0,
    degraded_mode: bool = True,
    workers: int = 1,
) -> List[CampaignResult]:
    """Cross every scheme with every verify-failure rate (one seed each).

    The grid executes on the :mod:`repro.campaign` runner: ``workers > 1``
    fans the cells out across processes.  Every cell's RNG derives from
    its (scheme, config, seed) alone, so parallel results are identical
    to a serial sweep, returned in scheme-major/rate-minor order.
    """
    from repro.campaign import RunnerConfig, TaskKey, run_collect

    # Build every rate's config up front: a rate PCMConfig refuses
    # raises ValueError here, before any task runs.
    cells = [
        dataclasses.asdict(
            dataclasses.replace(config, verify_fail_base=float(rate))
        )
        for rate in verify_fail_rates
    ]
    keys: List[TaskKey] = []
    for scheme_name in schemes:
        for cell in cells:
            keys.append(TaskKey.create(
                kind="faults",
                params={
                    **cell,
                    "scheme": scheme_name,
                    "n_spares": n_spares,
                    "n_writes": n_writes,
                    "degraded_mode": degraded_mode,
                },
                seed=seed,
            ))
    records = run_collect(keys, RunnerConfig(workers=workers, retries=0))
    results: List[CampaignResult] = []
    for key, record in zip(keys, records):
        if not record.ok:
            raise RuntimeError(
                f"fault campaign {key.param('scheme')} @ "
                f"{key.param('verify_fail_base')} failed: {record.error}"
            )
        results.append(_campaign_result_from_dict(record.result or {}))
    return results


# ------------------------------------------------------- side channel


@dataclass(frozen=True)
class SideChannelProbe:
    """Write-latency distribution observed at one (wear, data) point."""

    wear_fraction: float
    data: LineData
    n_trials: int
    mean_latency_ns: float
    p95_latency_ns: float
    max_latency_ns: float
    retries_per_write: float


def verify_retry_side_channel(
    *,
    n_lines: int = 16,
    endurance: float = 1e6,
    verify_fail_base: float = 0.05,
    aged_fraction: float = 0.9,
    n_trials: int = 400,
    seed: int = 0,
) -> List[SideChannelProbe]:
    """Measure the wear/data dependence of write latency under retries.

    Probes three operating points on identical fresh arrays (same fault
    seed, so only the probability changes across probes):

    1. fresh line, MIXED data — the baseline;
    2. line pre-aged to ``aged_fraction`` of its endurance, MIXED data —
       the wear leak;
    3. same aged line, ALL-0 data — the data leak (RESET programs fail
       verify less often *and* retry more cheaply).

    Returns one :class:`SideChannelProbe` per point.  Under any nonzero
    ``verify_fail_base`` the aged-MIXED mean latency measurably exceeds
    the fresh-MIXED mean — write latency leaks wear state.
    """
    if not 0 <= aged_fraction <= 1:
        raise ValueError("aged_fraction must be in [0, 1]")
    config = PCMConfig(
        n_lines=n_lines,
        endurance=endurance,
        verify_fail_base=verify_fail_base,
        # Plenty of ECP headroom: the probe measures latency, not death.
        ecp_entries=max(256, n_trials),
    )
    probes = []
    for wear_fraction, data in (
        (0.0, MIXED),
        (aged_fraction, MIXED),
        (aged_fraction, ALL0),
    ):
        array = PCMArray(config, fault_rng=seed)
        pa = 0
        array.wear[pa] = int(wear_fraction * endurance)
        before = array.retry_events
        latencies = np.array([array.write(pa, data) for _ in range(n_trials)])
        probes.append(
            SideChannelProbe(
                wear_fraction=wear_fraction,
                data=data,
                n_trials=n_trials,
                mean_latency_ns=float(latencies.mean()),
                p95_latency_ns=float(np.percentile(latencies, 95)),
                max_latency_ns=float(latencies.max()),
                retries_per_write=(array.retry_events - before) / n_trials,
            )
        )
    return probes


def side_channel_separation_ns(probes: Sequence[SideChannelProbe]) -> float:
    """Mean-latency gap between the aged-MIXED and fresh-MIXED probes."""
    fresh = [p for p in probes if p.wear_fraction == 0.0 and p.data == MIXED]
    aged = [p for p in probes if p.wear_fraction > 0.0 and p.data == MIXED]
    if not fresh or not aged:
        raise ValueError("probes must include fresh and aged MIXED points")
    return aged[0].mean_latency_ns - fresh[0].mean_latency_ns
