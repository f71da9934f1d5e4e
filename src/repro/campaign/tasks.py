"""Task kinds: what one campaign point actually executes.

A *task function* maps ``(params, seed) -> JSON-able result dict``.  It
runs inside worker processes, so it must be a module-level function and
both its inputs and outputs must survive pickling/JSON.  Five kinds
ship with the library:

* ``lifetime`` — closed-form paper-scale lifetime of a (scheme, attack)
  pair (:mod:`repro.analysis.lifetime`); deterministic, seed-free.
* ``simulate`` — run one real attack against one scheme on the exact
  simulator and report the attack outcome plus the wear Gini.  This is
  the inner loop of the ``matrix`` subcommand and of
  :func:`repro.experiments.attack_matrix`.
* ``trace-lifetime`` — drive one scheme with one synthetic trace
  (uniform / zipf / sequential / raa) — or, with a ``trace_file``
  parameter, a loaded real trace (CSV or ``.rbt``) — to failure or
  budget on the batched engine
  (:func:`repro.sim.engine.run_trace_fast`); measured lifetime and
  write overhead rather than closed-form.
* ``lifetime-ff`` — paper-scale measured lifetime of one (scheme,
  trace) point on the analytic fast-forward tier.
* ``faults``   — one seeded fault-injection campaign
  (:func:`repro.analysis.resilience.run_fault_campaign`); the PR-1
  sweep, gridded.

Every built-in kind refuses a parameter it does not read with a
:class:`TaskError` naming it.

Register additional kinds with :func:`register_task_kind` (tests use
this for crash/timeout probes).  The registry is a plain dict in the
registering process; the runner pins the ``fork`` start method so those
runtime registrations reach workers — on platforms without ``fork``,
register custom kinds at import time of an importable module instead.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.campaign.spec import Scalar
from repro.config import (
    PAPER_PCM,
    PCMConfig,
    RBSGConfig,
    SecurityRBSGConfig,
    SRConfig,
)
from repro.sim.fastforward import TraceSpec
from repro.wearlevel.base import WearLeveler

TaskFn = Callable[[Mapping[str, Scalar], int], Dict[str, object]]

_TASK_KINDS: Dict[str, TaskFn] = {}


class TaskError(RuntimeError):
    """A task cannot run with the given parameters."""


def register_task_kind(name: str, fn: TaskFn) -> None:
    """Add (or replace) a task kind in the registry."""
    _TASK_KINDS[name] = fn


def task_kinds() -> Tuple[str, ...]:
    """The registered kind names, sorted."""
    return tuple(sorted(_TASK_KINDS))


def get_task(kind: str) -> TaskFn:
    """Resolve a kind name; raises :class:`TaskError` when unknown."""
    try:
        return _TASK_KINDS[kind]
    except KeyError:
        raise TaskError(
            f"unknown task kind {kind!r}; registered: {sorted(_TASK_KINDS)}"
        ) from None


def _int(params: Mapping[str, Scalar], name: str, default: int) -> int:
    return int(params.get(name, default))  # type: ignore[arg-type]


def _float(params: Mapping[str, Scalar], name: str, default: float) -> float:
    return float(params.get(name, default))  # type: ignore[arg-type]


def _str(params: Mapping[str, Scalar], name: str) -> str:
    try:
        return str(params[name])
    except KeyError:
        raise TaskError(f"task needs parameter {name!r}") from None


def _max_writes(
    params: Mapping[str, Scalar], default: Optional[int]
) -> Optional[int]:
    """The ``max_writes`` budget (``None``: unbounded); a negative
    budget raises :class:`TaskError` rather than run zero writes."""
    value = params.get("max_writes", default)
    if value is None:
        return None
    budget = int(value)  # type: ignore[arg-type]
    if budget < 0:
        raise TaskError(f"max_writes must be >= 0, got {budget}")
    return budget


def _pcm_config(**fields: Any) -> PCMConfig:
    """``PCMConfig(**fields)``; a field the config refuses (a zero
    endurance, a line count that is not a power of two) raises
    :class:`TaskError`."""
    try:
        return PCMConfig(**fields)
    except ValueError as exc:
        raise TaskError(str(exc)) from None


def _trace_spec(
    params: Mapping[str, Scalar], kind: str, n_lines: int, seed: int,
    batch: int,
) -> TraceSpec:
    """The synthetic trace ``kind`` over ``n_lines`` lines, with its
    ``alpha`` and ``target`` read from ``params``; a trace the spec
    refuses (unknown kind, zipf ``alpha <= 0``, an ``raa`` target off
    the device) raises :class:`TaskError`."""
    try:
        return TraceSpec(
            kind, n_lines,
            alpha=_float(params, "alpha", 1.2),
            target=_int(params, "target", 5),
            seed=seed, batch=batch,
        )
    except ValueError as exc:
        raise TaskError(str(exc)) from None


def _check_params(
    kind: str, params: Mapping[str, Scalar], allowed: Iterable[str]
) -> None:
    """Refuse every key of ``params`` the ``kind`` task does not read
    (:class:`TaskError` naming them), so a spec does not silently run a
    device other than the one it names."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise TaskError(f"{kind} does not take parameters {unknown}")


# ------------------------------------------------------------- lifetime


def run_lifetime_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Closed-form lifetime of one (scheme, attack, config) point."""
    from repro.analysis.lifetime import (
        ideal_lifetime_ns,
        raa_nowl_lifetime_ns,
        raa_rbsg_lifetime_ns,
        raa_security_rbsg_lifetime_ns,
        raa_two_level_sr_lifetime_ns,
        rta_rbsg_lifetime_ns,
        rta_two_level_sr_lifetime_ns,
    )

    _check_params("lifetime", params, (
        "scheme", "attack", "lines", "endurance", "regions", "interval",
        "subregions", "inner", "outer", "stages",
    ))
    scheme = _str(params, "scheme")
    attack = _str(params, "attack")
    pcm = PAPER_PCM.scaled(
        n_lines=_int(params, "lines", PAPER_PCM.n_lines),
        endurance=_float(params, "endurance", PAPER_PCM.endurance),
    )
    if scheme == "none" and attack == "raa":
        ns = raa_nowl_lifetime_ns(pcm)
    elif scheme == "rbsg":
        cfg = RBSGConfig(
            _int(params, "regions", 32), _int(params, "interval", 100)
        )
        fn = rta_rbsg_lifetime_ns if attack == "rta" else raa_rbsg_lifetime_ns
        ns = fn(pcm, cfg)
    elif scheme == "two-level-sr":
        sr = SRConfig(
            _int(params, "subregions", 512),
            _int(params, "inner", 64),
            _int(params, "outer", 128),
        )
        fn2 = (
            rta_two_level_sr_lifetime_ns
            if attack == "rta"
            else raa_two_level_sr_lifetime_ns
        )
        ns = fn2(pcm, sr)
    elif scheme == "security-rbsg" and attack == "raa":
        srbsg = SecurityRBSGConfig(
            _int(params, "subregions", 512),
            _int(params, "inner", 64),
            _int(params, "outer", 128),
            _int(params, "stages", 7),
        )
        ns = raa_security_rbsg_lifetime_ns(pcm, srbsg)
    else:
        raise TaskError(f"no lifetime model for pair {scheme} / {attack}")
    ideal = ideal_lifetime_ns(pcm)
    return {
        "scheme": scheme,
        "attack": attack,
        "lifetime_ns": ns,
        "ideal_ns": ideal,
        "fraction_of_ideal": ns / ideal,
    }


# ------------------------------------------------------------- simulate

#: The parameters :func:`build_scheme` reads.
SCHEME_PARAMS = ("interval", "regions", "outer", "stages")


def build_scheme(
    name: str, n_lines: int, seed: int, params: Mapping[str, Scalar]
) -> "WearLeveler":
    """Construct one wear-leveling scheme instance by short name.

    :data:`repro.experiments.SCHEME_FACTORIES` builds every scheme with
    these defaults; ``regions`` / ``interval`` / ``outer`` / ``stages``
    parameters (:data:`SCHEME_PARAMS`) override them (the knobs
    ``repro simulate`` has always exposed).  A value the scheme refuses
    (an interval of 0, a line count its regions cannot split) raises
    :class:`TaskError`.
    """
    try:
        return _construct_scheme(name, n_lines, seed, params)
    except ValueError as exc:
        raise TaskError(str(exc)) from None


def _construct_scheme(
    name: str, n_lines: int, seed: int, params: Mapping[str, Scalar]
) -> "WearLeveler":
    from repro.core.security_rbsg import SecurityRBSG
    from repro.wearlevel import (
        MultiWaySR,
        NoWearLeveling,
        RandomSwapWearLeveling,
        RegionBasedStartGap,
        SecurityRefresh,
        StartGap,
        TableBasedWearLeveling,
        TwoLevelSecurityRefresh,
    )

    interval = _int(params, "interval", 16)
    regions = _int(params, "regions", 8)
    outer = _int(params, "outer", 2 * interval)
    stages = _int(params, "stages", 7)
    if name == "none":
        return NoWearLeveling(n_lines)
    if name == "start-gap":
        return StartGap(n_lines, remap_interval=interval)
    if name == "table":
        return TableBasedWearLeveling(n_lines, swap_interval=interval)
    if name == "random-swap":
        return RandomSwapWearLeveling(
            n_lines, swap_interval=interval, rng=seed
        )
    if name == "rbsg":
        return RegionBasedStartGap(
            n_lines, n_regions=regions, remap_interval=interval, rng=seed
        )
    if name == "sr":
        return SecurityRefresh(n_lines, remap_interval=interval, rng=seed)
    if name == "multiway-sr":
        return MultiWaySR(
            n_lines, n_subregions=regions, remap_interval=interval, rng=seed
        )
    if name == "two-level-sr":
        return TwoLevelSecurityRefresh(
            n_lines, n_subregions=regions, inner_interval=interval,
            outer_interval=outer, rng=seed,
        )
    if name == "security-rbsg":
        return SecurityRBSG(
            n_lines, n_subregions=regions, inner_interval=interval,
            outer_interval=outer, n_stages=stages, rng=seed,
        )
    raise TaskError(f"unknown scheme {name!r}")


def run_simulate_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Run one real attack to failure (or budget) on the exact simulator."""
    from repro.attacks import (
        AddressInferenceAttack,
        BirthdayParadoxAttack,
        RBSGTimingAttack,
        RepeatedAddressAttack,
        SRTimingAttack,
    )
    from repro.pcm.stats import WearStats
    from repro.sim.memory_system import MemoryController

    _check_params("simulate", params, (
        "scheme", "attack", "lines", "endurance", "budget", "target",
        "knowledge_interval", *SCHEME_PARAMS,
    ))
    scheme_name = _str(params, "scheme")
    attack_name = _str(params, "attack")
    n_lines = _int(params, "lines", 512)
    endurance = _float(params, "endurance", 2e4)
    budget = _int(params, "budget", 50_000_000)
    if budget < 0:
        raise TaskError(f"budget must be >= 0, got {budget}")
    target = _int(params, "target", 5)

    config = _pcm_config(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, seed, params)
    controller = MemoryController(scheme, config)
    attack: Any
    if attack_name == "raa":
        attack = RepeatedAddressAttack(controller, target_la=target)
    elif attack_name == "bpa":
        attack = BirthdayParadoxAttack(controller, rng=seed)
    elif attack_name == "aia":
        attack = AddressInferenceAttack(
            controller,
            knowledge_interval=_int(params, "knowledge_interval", 256),
        )
    elif attack_name == "rta" and scheme_name == "rbsg":
        attack = RBSGTimingAttack(controller, target_la=target)
    elif attack_name == "rta" and scheme_name == "sr":
        attack = SRTimingAttack(controller, target_la=max(1, target))
    else:
        raise TaskError(
            f"unsupported pair: {scheme_name} / {attack_name}"
        )
    result = attack.run(max_writes=budget)
    gini = WearStats.from_wear(controller.array.wear).gini
    return {
        "scheme": scheme_name,
        "attack": attack_name,
        "attack_label": result.attack,
        "user_writes": result.user_writes,
        "elapsed_ns": result.elapsed_ns,
        "failed": result.failed,
        "failed_pa": result.failed_pa,
        "detection_writes": result.detection_writes,
        "lifetime_seconds": result.lifetime_seconds,
        "wear_gini": gini,
    }


# ------------------------------------------------------- trace lifetime


def run_trace_lifetime_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Measured lifetime / write overhead of one (scheme, trace) point.

    Drives the exact simulator with a synthetic trace — or, when the
    ``trace_file`` parameter names a CSV / ``.rbt`` file, a loaded real
    trace — until failure or the ``max_writes`` budget, on the batched
    engine by default (``fast = false`` selects the scalar reference;
    both are bit-identical, see :mod:`repro.sim.engine`).
    """
    from repro.pcm.stats import WearStats
    from repro.sim.engine import run_trace, run_trace_fast
    from repro.sim.memory_system import MemoryController
    from repro.traffic.adapter import open_trace_chunks, open_trace_entries
    from repro.traffic.errors import TraceFileError

    _check_params("trace-lifetime", params, (
        "scheme", "trace", "trace_file", "line_bytes", "window_start",
        "window_mode", "lines", "endurance", "max_writes", "alpha", "target",
        "fast", *SCHEME_PARAMS,
    ))
    scheme_name = _str(params, "scheme")
    trace_file = params.get("trace_file")
    trace_name = _str(params, "trace") if trace_file is None else str(
        params.get("trace", "file")
    )
    n_lines = _int(params, "lines", 4096)
    endurance = _float(params, "endurance", 1e4)
    max_writes = _max_writes(params, 10_000_000)
    fast = bool(params.get("fast", True))

    config = _pcm_config(n_lines=n_lines, endurance=endurance)
    # One spec feeds either engine: its chunks and its entries draw the
    # identical RNG stream, so the engine choice cannot change the trace.
    trace: Any
    if trace_file is not None:
        opener = open_trace_chunks if fast else open_trace_entries
        try:
            trace = opener(
                str(trace_file),
                n_lines=n_lines,
                line_bytes=_int(params, "line_bytes", 64),
                window_start=_int(params, "window_start", 0),
                window_mode=str(params.get("window_mode", "wrap")),
            )
        except TraceFileError:
            raise
        except ValueError as exc:  # a refused window or line size
            raise TaskError(str(exc)) from None
    else:
        trace = _trace_spec(params, trace_name, n_lines, seed, batch=4096)
    scheme = build_scheme(scheme_name, n_lines, seed, params)
    controller = MemoryController(scheme, config)
    driver = run_trace_fast if fast else run_trace
    result = driver(controller, trace, max_writes=max_writes)
    gini = WearStats.from_wear(controller.array.wear).gini
    return {
        "scheme": scheme_name,
        "trace": trace_name,
        "engine": "batched" if fast else "scalar",
        "user_writes": result.user_writes,
        "total_writes": result.total_writes,
        "elapsed_ns": result.elapsed_ns,
        "write_amplification": result.write_amplification,
        "failed": result.failed,
        "failed_pa": result.failed_pa,
        "lifetime_seconds": result.lifetime_seconds,
        "wear_gini": gini,
    }


def run_lifetime_ff_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Paper-scale measured lifetime on the analytic fast-forward tier.

    The fast-forward form of ``trace-lifetime``, for device sizes where
    even the chunk-exact engine is too slow: the trace is described
    by a :class:`~repro.sim.fastforward.TraceSpec` and the engine jumps
    whole remapping rounds analytically, dropping back to chunk-exact
    near end-of-life (see docs/performance.md).  Parameters: ``scheme``,
    ``trace``, ``lines``, ``endurance``, ``max_writes``, ``alpha``,
    ``target``, ``fast_forward`` (``auto`` / ``analytic`` / ``off``) and
    the scheme's :data:`SCHEME_PARAMS`.  Any other key raises
    :class:`TaskError`, so a spec does not silently run a device other
    than the one it names.

    The reported lifetime is the paper's **first-failure** metric.
    """
    from repro.pcm.stats import WearStats
    from repro.sim.engine import run_trace_fast
    from repro.sim.memory_system import MemoryController

    _check_params("lifetime-ff", params, (
        "scheme", "trace", "lines", "endurance", "max_writes", "alpha",
        "target", "fast_forward", *SCHEME_PARAMS,
    ))
    scheme_name = _str(params, "scheme")
    trace_name = _str(params, "trace")
    n_lines = _int(params, "lines", PAPER_PCM.n_lines)
    endurance = _float(params, "endurance", 1e8)
    max_writes = _max_writes(params, None)
    mode = str(params.get("fast_forward", "auto"))
    spec = _trace_spec(params, trace_name, n_lines, seed, batch=8192)

    config = _pcm_config(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, seed, params)
    controller = MemoryController(scheme, config)
    result = run_trace_fast(
        controller, spec, max_writes=max_writes, fast_forward=mode,
    )
    gini = WearStats.from_wear(controller.array.wear).gini
    return {
        "scheme": scheme_name,
        "trace": trace_name,
        "engine": f"fast-forward:{mode}",
        "user_writes": result.user_writes,
        "total_writes": result.total_writes,
        "elapsed_ns": result.elapsed_ns,
        "write_amplification": result.write_amplification,
        "failed": result.failed,
        "failed_pa": result.failed_pa,
        "lifetime_seconds": result.lifetime_seconds,
        "wear_gini": gini,
    }


# --------------------------------------------------------------- faults


def run_faults_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """One seeded fault-injection campaign on one (scheme, config) point."""
    from repro.analysis.resilience import run_fault_campaign

    pcm_fields = {f.name for f in dataclasses.fields(PCMConfig)}
    _check_params("faults", params, (
        "scheme", "n_spares", "n_writes", "degraded_mode", *pcm_fields,
    ))
    scheme = _str(params, "scheme")
    config = _pcm_config(
        **{k: v for k, v in params.items() if k in pcm_fields}
    )
    result = run_fault_campaign(
        scheme,
        config,
        n_spares=_int(params, "n_spares", 8),
        n_writes=_int(params, "n_writes", 20_000),
        seed=seed,
        degraded_mode=bool(params.get("degraded_mode", True)),
    )
    document = dataclasses.asdict(result)
    document["retirements"] = [list(r) for r in result.retirements]
    return document


register_task_kind("lifetime", run_lifetime_task)
register_task_kind("simulate", run_simulate_task)
register_task_kind("trace-lifetime", run_trace_lifetime_task)
register_task_kind("lifetime-ff", run_lifetime_ff_task)
register_task_kind("faults", run_faults_task)
