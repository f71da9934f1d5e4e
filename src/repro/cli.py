"""Command-line interface: lifetimes, attacks, overhead, performance.

Installed as ``python -m repro``.  Subcommands:

* ``lifetime``  — analytic paper-scale lifetimes for a scheme/attack pair,
* ``simulate``  — run a real attack on the exact simulator (scaled config),
* ``trace``     — measured lifetime/overhead under a synthetic trace —
  or a loaded real trace (``--trace-file``, CSV or ``.rbt``) — on the
  batched fast engine (``--no-fast`` for the scalar reference); the
  ``convert`` / ``info`` subcommands manage trace files,
* ``overhead``  — the §V-C3 hardware-cost table,
* ``stages``    — security sizing of the dynamic Feistel network,
* ``perf``      — the §V-C4 IPC-impact table,
* ``faults``    — fault-injection campaigns and the verify-retry
  side-channel experiment,
* ``campaign``  — parallel experiment campaigns with crash-safe
  checkpointing: ``run`` / ``resume`` / ``status`` / ``report`` /
  ``compact``,
* ``lint``      — the reprolint simulator-invariant checker
  (also ``python -m repro.lint``).

Examples::

    python -m repro lifetime --scheme rbsg --attack rta
    python -m repro simulate --scheme rbsg --attack rta --lines 512 \
        --endurance 2e4
    python -m repro trace --scheme security-rbsg --trace uniform \
        --lines 4096 --endurance 1e4 --json
    python -m repro trace convert tests/data/msr_sample.csv out.rbt \
        --lines 4096
    python -m repro trace info out.rbt
    python -m repro trace --scheme security-rbsg --trace-file out.rbt
    python -m repro overhead --stages 7 --json
    python -m repro stages --outer-interval 128
    python -m repro perf --interval 64 --ops 10000
    python -m repro faults --schemes none rbsg --rates 0 1e-3 1e-2
    python -m repro faults --side-channel
    python -m repro campaign run examples/campaigns/fault_grid.toml \
        --out out/fault-grid --workers 4
    python -m repro campaign report out/fault-grid --format csv
    python -m repro lint src/repro --format json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.lifetime import (
    ideal_lifetime_ns,
    raa_nowl_lifetime_ns,
    raa_rbsg_lifetime_ns,
    raa_security_rbsg_lifetime_ns,
    raa_two_level_sr_lifetime_ns,
    rta_rbsg_lifetime_ns,
    rta_two_level_sr_lifetime_ns,
)
from repro.analysis.overhead import security_rbsg_overhead
from repro.analysis.security import is_secure, min_secure_stages
from repro.config import (
    PAPER_PCM,
    PCMConfig,
    RBSGConfig,
    SecurityRBSGConfig,
    SRConfig,
)

DAY_NS = 86_400e9


def _fmt_duration(ns: float) -> str:
    seconds = ns * 1e-9
    if seconds < 600:
        return f"{seconds:.1f} s"
    if seconds < 86_400 * 3:
        return f"{seconds / 3600:.1f} h"
    return f"{seconds / 86_400:.0f} days"


# ------------------------------------------------------------ subcommands


def cmd_lifetime(args: argparse.Namespace) -> int:
    if args.paper_scale:
        return _lifetime_paper_scale(args)
    pcm = PAPER_PCM
    scheme, attack = args.scheme, args.attack
    if attack is None:
        print("--attack is required without --paper-scale", file=sys.stderr)
        return 2
    if scheme == "security-rbsg" and attack == "rta":
        if args.json:
            print(json.dumps({
                "scheme": scheme,
                "attack": attack,
                "lifetime_ns": None,
                "resists_rta": True,
            }, sort_keys=True))
        else:
            print(
                "Security RBSG resists RTA by design: with a secure "
                "stage count the DFN keys rotate before detection "
                "completes (see `python -m repro stages`)."
            )
        return 0
    try:
        if scheme == "none" and attack == "raa":
            ns = raa_nowl_lifetime_ns(pcm)
        elif scheme == "rbsg":
            rbsg_cfg = RBSGConfig(args.regions, args.interval)
            ns = (rta_rbsg_lifetime_ns if attack == "rta"
                  else raa_rbsg_lifetime_ns)(pcm, rbsg_cfg)
        elif scheme == "two-level-sr":
            sr_cfg = SRConfig(args.subregions, args.inner, args.outer)
            fn = (
                rta_two_level_sr_lifetime_ns
                if attack == "rta"
                else raa_two_level_sr_lifetime_ns
            )
            ns = fn(pcm, sr_cfg)
        elif scheme == "security-rbsg":
            srbsg_cfg = SecurityRBSGConfig(args.subregions, args.inner,
                                           args.outer, args.stages)
            ns = raa_security_rbsg_lifetime_ns(pcm, srbsg_cfg)
        else:
            print(f"unsupported pair: {scheme} / {attack}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ideal = ideal_lifetime_ns(pcm)
    if args.json:
        print(json.dumps({
            "scheme": scheme,
            "attack": attack,
            "endurance": pcm.endurance,
            "n_lines": pcm.n_lines,
            "lifetime_ns": ns,
            "ideal_ns": ideal,
            "fraction_of_ideal": ns / ideal,
        }, sort_keys=True))
        return 0
    print(f"device          : 1 GB bank, E={pcm.endurance:g} "
          f"(ideal {_fmt_duration(ideal)})")
    print(f"scheme / attack : {scheme} / {attack.upper()}")
    print(f"lifetime        : {_fmt_duration(ns)} "
          f"({ns / ideal:.1%} of ideal)")
    return 0


def _lifetime_paper_scale(args: argparse.Namespace) -> int:
    """``repro lifetime --paper-scale``: measured, not modelled.

    Drives the requested scheme at the paper's device scale (2^22 lines,
    E = 1e8) on the analytic fast-forward engine, through the same
    ``lifetime-ff`` task a campaign runs — minutes instead of the chunk
    engine's hours.
    """
    from repro.campaign.tasks import TaskError, get_task

    # Map the closed-form flag names onto build_scheme's parameter keys:
    # the sub-region schemes read their split/interval from --subregions
    # and --inner, everything else from --regions and --interval.
    subregioned = args.scheme in ("multiway-sr", "two-level-sr", "security-rbsg")
    params = {
        "scheme": args.scheme,
        "trace": args.trace,
        "lines": args.lines,
        "endurance": args.endurance,
        "fast_forward": args.fast_forward,
        "alpha": args.alpha,
        "regions": args.subregions if subregioned else args.regions,
        "interval": args.inner if subregioned else args.interval,
        "outer": args.outer,
        "stages": args.stages,
    }
    try:
        result = get_task("lifetime-ff")(params, args.seed)
    except TaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, sort_keys=True))
        return 0
    print(f"device          : {args.lines} lines, E={args.endurance:g}")
    print(f"scheme / trace  : {args.scheme} / {args.trace} "
          f"(seed {args.seed})")
    print(f"engine          : {result['engine']}")
    print(f"user writes     : {result['user_writes']:,}")
    print(f"amplification   : {result['write_amplification']:.4f}")
    print(f"wear gini       : {result['wear_gini']:.4f}")
    lifetime_ns = float(result["elapsed_ns"])  # type: ignore[arg-type]
    status = "failed" if result["failed"] else "survived budget"
    print(f"lifetime        : {_fmt_duration(lifetime_ns)} ({status})")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.campaign.tasks import TaskError, run_simulate_task

    params = {
        "scheme": args.scheme,
        "attack": args.attack,
        "lines": args.lines,
        "endurance": args.endurance,
        "regions": args.regions,
        "interval": args.interval,
        "stages": args.stages,
        "target": args.target,
        "budget": args.budget,
    }
    try:
        result = run_simulate_task(params, args.seed)
    except TaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ns = float(result["elapsed_ns"])  # type: ignore[arg-type]
    print(f"scheme / attack : {args.scheme} / {result['attack_label']}")
    print(f"device          : {args.lines} lines, E={args.endurance:g}")
    if result["failed"]:
        print(f"FAILED line {result['failed_pa']} after "
              f"{result['user_writes']} attacker writes = "
              f"{_fmt_duration(elapsed_ns)}")
    else:
        print(f"survived the {args.budget}-write budget "
              f"({_fmt_duration(elapsed_ns)})")
    if result["detection_writes"]:
        print(f"side-channel detection cost: {result['detection_writes']} writes")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.campaign.tasks import TaskError, run_trace_lifetime_task
    from repro.traffic import TraceFileError

    if args.scheme is None:
        print("error: repro trace needs --scheme", file=sys.stderr)
        return 2
    if args.trace is None and args.trace_file is None:
        print("error: repro trace needs --trace or --trace-file",
              file=sys.stderr)
        return 2
    params = {
        "scheme": args.scheme,
        "lines": args.lines,
        "endurance": args.endurance,
        "max_writes": args.budget,
        "interval": args.interval,
        "regions": args.regions,
        "stages": args.stages,
        "alpha": args.alpha,
        "target": args.target,
        "fast": not args.no_fast,
    }
    if args.trace is not None:
        params["trace"] = args.trace
    if args.trace_file is not None:
        params["trace_file"] = args.trace_file
        params["line_bytes"] = args.line_bytes
        params["window_start"] = args.window_start
        params["window_mode"] = args.window_mode
        params.setdefault("trace", args.trace_file)
    if args.outer is not None:
        params["outer"] = args.outer
    try:
        result = run_trace_lifetime_task(params, args.seed)
    except (TaskError, TraceFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result, sort_keys=True))
        return 0
    print(f"scheme / trace : {args.scheme} / {result['trace']} "
          f"({result['engine']} engine)")
    print(f"device          : {args.lines} lines, E={args.endurance:g}")
    elapsed_ns = float(result["elapsed_ns"])  # type: ignore[arg-type]
    if result["failed"]:
        print(f"FAILED line {result['failed_pa']} after "
              f"{result['user_writes']} user writes = "
              f"{_fmt_duration(elapsed_ns)}")
    else:
        print(f"survived {result['user_writes']} user writes "
              f"({_fmt_duration(elapsed_ns)})")
    amplification = float(result["write_amplification"])  # type: ignore[arg-type]
    gini = float(result["wear_gini"])  # type: ignore[arg-type]
    print(f"write overhead  : {amplification:.4f}x physical/user writes")
    print(f"wear gini       : {gini:.4f}")
    return 0


def cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.traffic import convert_to_rbt

    try:
        n = convert_to_rbt(
            args.csv, args.rbt,
            n_lines=args.lines,
            line_bytes=args.line_bytes,
            window_start=args.window_start,
            window_mode=args.window_mode,
        )
    except ValueError as exc:  # a TraceFileError or a refused window
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {n} line writes to {args.rbt}")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.traffic import csv_info, rbt_metadata, trace_format

    try:
        if trace_format(args.path) == "rbt":
            header = rbt_metadata(args.path)
            document = {
                "format": "rbt",
                "n_entries": header["n_entries"],
                "metadata": header.get("meta", {}),
            }
        else:
            n_records, n_writes, n_lines, max_la = csv_info(
                args.path, line_bytes=args.line_bytes
            )
            document = {
                "format": "csv",
                "n_records": n_records,
                "n_writes": n_writes,
                "n_write_lines": n_lines,
                "max_raw_la": max_la,
            }
    except ValueError as exc:  # a TraceFileError or a refused line size
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(document, sort_keys=True))
        return 0
    print(f"format       : {document['format']}")
    if document["format"] == "rbt":
        print(f"line writes  : {document['n_entries']}")
        for key, value in sorted(
            dict(document["metadata"]).items()  # type: ignore[call-overload]
        ):
            print(f"  {key:<11}: {value}")
    else:
        print(f"records      : {document['n_records']}")
        print(f"writes       : {document['n_writes']}")
        print(f"line writes  : {document['n_write_lines']} "
              f"(at {args.line_bytes} B/line)")
        print(f"max raw line : {document['max_raw_la']}")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    try:
        cfg = SecurityRBSGConfig(
            args.subregions, args.inner, args.outer, args.stages
        )
        overhead = security_rbsg_overhead(PAPER_PCM, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "n_subregions": args.subregions,
            "inner_interval": args.inner,
            "outer_interval": args.outer,
            "n_stages": args.stages,
            "register_bits": overhead.register_bits,
            "register_bytes": overhead.register_bytes,
            "isremap_sram_bits": overhead.isremap_sram_bits,
            "isremap_sram_bytes": overhead.isremap_sram_bytes,
            "spare_lines": overhead.spare_lines,
            "spare_bytes": overhead.spare_bytes,
            "cubing_gates": overhead.cubing_gates,
        }, sort_keys=True))
        return 0
    print(f"Security RBSG overhead (1 GB bank, S={args.stages}, "
          f"R={args.subregions}):")
    print(f"  registers    : {overhead.register_bits} bits "
          f"({overhead.register_bytes / 1024:.2f} KB)")
    print(f"  isRemap SRAM : {overhead.isremap_sram_bytes / 2**20:.2f} MB")
    print(f"  spare lines  : {overhead.spare_lines} "
          f"({overhead.spare_bytes / 1024:.1f} KB PCM)")
    print(f"  cubing logic : {overhead.cubing_gates} gates")
    return 0


def cmd_stages(args: argparse.Namespace) -> int:
    try:
        minimum = min_secure_stages(PAPER_PCM, args.outer_interval)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"outer remapping interval {args.outer_interval}, "
          f"{PAPER_PCM.address_bits} key bits per stage:")
    print(f"  minimum secure stage count: {minimum}")
    for stages in range(max(1, minimum - 2), minimum + 3):
        status = "SECURE" if is_secure(PAPER_PCM, stages,
                                       args.outer_interval) else "detectable"
        print(f"  S={stages:2d}: {status}")
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    from repro.analysis.tradeoff import explore_design_space, pareto_front

    feasible = explore_design_space(
        PAPER_PCM, max_write_overhead=args.max_overhead
    )
    if not feasible:
        print("no feasible design under these constraints", file=sys.stderr)
        return 1
    front = pareto_front(feasible)
    print(f"feasible designs: {len(feasible)}; Pareto-optimal: {len(front)}")
    print(f"{'R':>5} {'inner':>6} {'outer':>6} {'S':>3}  "
          f"{'lifetime':>9} {'overhead':>9} {'reg bits':>9} {'gates':>6}")
    for point in front[: args.top]:
        cfg = point.config
        print(f"{cfg.n_subregions:>5} {cfg.inner_interval:>6} "
              f"{cfg.outer_interval:>6} {cfg.n_stages:>3}  "
              f"{point.lifetime_fraction:>8.1%} "
              f"{point.write_overhead:>8.2%} "
              f"{point.overhead.register_bits:>9} "
              f"{point.overhead.cubing_gates:>6}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments import attack_matrix, summarize_matrix

    try:
        cells = attack_matrix(
            n_lines=args.lines,
            endurance=args.endurance,
            schemes=args.schemes,
            attacks=args.attacks,
            budget=args.budget,
            seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summarize_matrix(cells))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.analysis.resilience import (
        side_channel_separation_ns,
        sweep_fault_rates,
        verify_retry_side_channel,
    )
    from repro.pcm.timing import LineData

    if args.side_channel:
        probes = verify_retry_side_channel(
            verify_fail_base=args.verify_fail or 0.05,
            n_trials=args.trials,
            seed=args.seed,
        )
        print("verify-retry side channel (write-latency distribution):")
        print(f"{'wear':>6} {'data':>6} {'mean ns':>9} {'p95 ns':>9} "
              f"{'max ns':>9} {'retries/wr':>10}")
        for p in probes:
            print(f"{p.wear_fraction:>6.2f} {LineData(p.data).name:>6} "
                  f"{p.mean_latency_ns:>9.1f} {p.p95_latency_ns:>9.1f} "
                  f"{p.max_latency_ns:>9.1f} {p.retries_per_write:>10.3f}")
        print(f"wear leak (aged vs fresh, MIXED): "
              f"{side_channel_separation_ns(probes):+.1f} ns mean")
        return 0

    try:
        config = PCMConfig(
            n_lines=args.lines,
            endurance=args.endurance,
            read_disturb_ber=args.read_disturb,
            ecp_entries=args.ecp,
        )
        results = sweep_fault_rates(
            args.schemes, config, args.rates,
            n_spares=args.spares, n_writes=args.writes, seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fault-injection campaign: {args.lines} lines, "
          f"E={args.endurance:g}, {args.spares} spares, "
          f"{args.writes} writes, seed {args.seed}")
    print(f"{'scheme':<14} {'rate':>8} {'avail':>7} {'fails':>6} "
          f"{'retired':>8} {'retries':>8} {'corrected':>9} {'cause':>16}")
    for r in results:
        print(f"{r.scheme:<14} {r.verify_fail_base:>8.0e} "
              f"{r.availability:>6.1%} {r.health.failures:>6} "
              f"{r.health.retired_lines:>8} {r.health.retry_events:>8} "
              f"{r.health.corrected_errors:>9} {r.end_cause:>16}")
    return 0


# ---------------------------------------------------------- campaigns


def _campaign_execute(args: argparse.Namespace, resume: bool) -> int:
    """Shared engine of ``campaign run`` and ``campaign resume``."""
    from repro.campaign import (
        CampaignStore,
        RunnerConfig,
        SpecError,
        StoreError,
        load_spec,
        run_campaign,
    )

    try:
        # The runner options are checked before the store is touched, so
        # a bad option leaves no half-created campaign directory behind.
        config = RunnerConfig(
            workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            max_tasks=args.max_tasks,
            progress=not args.quiet,
        )
        if resume:
            store = CampaignStore.open(args.out)
            spec = store.spec()
        else:
            spec = load_spec(args.spec)
            store = CampaignStore.create(args.out, spec)
    except (SpecError, StoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with store:
        summary = run_campaign(spec, store, config)
    note = " (stopped early: --max-tasks)" if summary.stopped_early else ""
    print(f"campaign {spec.name}: {summary.n_ok} ok, "
          f"{summary.n_failed} failed, {summary.n_skipped} skipped "
          f"of {len(spec.expand())} tasks{note}")
    return 0 if summary.complete else 1


def cmd_campaign_run(args: argparse.Namespace) -> int:
    return _campaign_execute(args, resume=False)


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _campaign_execute(args, resume=True)


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, StoreError

    try:
        status = CampaignStore.open(args.out).status()
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = "complete" if status.complete else "in progress"
    print(f"campaign     : {status.name} (kind {status.kind})")
    print(f"tasks        : {status.n_ok}/{status.n_tasks} ok, "
          f"{status.n_error} errored, {status.n_pending} pending")
    print(f"records      : {status.n_records}")
    print(f"state        : {state}")
    return 0 if status.complete else 1


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, StoreError, aggregate, to_csv, to_json

    try:
        store = CampaignStore.open(args.out)
        records = store.records()
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = aggregate(records)
    text = to_csv(rows) if args.format == "csv" else to_json(rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_campaign_compact(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignStore, StoreError

    try:
        store = CampaignStore.open(args.out)
        n = store.compact()
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"compacted {args.out}: {n} completed task(s) indexed")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import main as lint_main

    return lint_main(args.lint_args)


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.perfmodel import PARSEC_LIKE, SPEC_LIKE
    from repro.perfmodel.cpu import ipc_degradation_percent

    for label, suite in (("PARSEC-like", PARSEC_LIKE),
                         ("SPEC-like", SPEC_LIKE)):
        losses = [
            ipc_degradation_percent(
                spec, args.interval, n_mem_ops=args.ops, seed=args.seed
            )
            for spec in suite
        ]
        print(f"{label:12s}: avg IPC loss {np.mean(losses):5.2f} % "
              f"(max {np.max(losses):.2f} % on "
              f"{suite[int(np.argmax(losses))].name})")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Security RBSG (IPDPS'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lifetime", help="analytic paper-scale lifetime")
    p.add_argument("--scheme", required=True,
                   choices=["none", "start-gap", "table", "random-swap",
                            "rbsg", "sr", "multiway-sr", "two-level-sr",
                            "security-rbsg"])
    p.add_argument("--attack", choices=["raa", "rta"],
                   help="closed-form model to evaluate (default mode)")
    p.add_argument("--regions", type=int, default=32)
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--subregions", type=int, default=512)
    p.add_argument("--inner", type=int, default=64)
    p.add_argument("--outer", type=int, default=128)
    p.add_argument("--stages", type=int, default=7)
    p.add_argument("--paper-scale", action="store_true",
                   help="measure (not model) lifetime at paper scale on "
                        "the analytic fast-forward engine")
    p.add_argument("--trace", default="uniform",
                   choices=["uniform", "zipf", "sequential", "raa"],
                   help="[--paper-scale] workload distribution")
    p.add_argument("--lines", type=int, default=PAPER_PCM.n_lines,
                   help="[--paper-scale] device lines (default 2^22, the "
                        "paper's 1 GB bank of 256 B lines)")
    p.add_argument("--endurance", type=float, default=1e8,
                   help="[--paper-scale] per-line endurance (default 1e8)")
    p.add_argument("--fast-forward", default="auto",
                   choices=["auto", "analytic", "off"],
                   help="[--paper-scale] engine tier policy")
    p.add_argument("--alpha", type=float, default=1.2,
                   help="[--paper-scale] zipf exponent")
    p.add_argument("--seed", type=int, default=0,
                   help="[--paper-scale] trace / scheme seed")
    p.add_argument("--json", action="store_true",
                   help="emit a single JSON object instead of text")
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("simulate", help="run a real attack (scaled device)")
    p.add_argument("--scheme", required=True,
                   choices=["none", "rbsg", "sr", "security-rbsg"])
    p.add_argument("--attack", required=True, choices=["raa", "bpa", "rta"])
    p.add_argument("--lines", type=int, default=512)
    p.add_argument("--endurance", type=float, default=2e4)
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--interval", type=int, default=8)
    p.add_argument("--stages", type=int, default=7)
    p.add_argument("--target", type=int, default=5)
    p.add_argument("--budget", type=int, default=50_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "trace",
        help="measured lifetime/overhead under a synthetic or loaded "
             "trace (batched engine); also `trace convert` / `trace info`",
    )
    p.add_argument("--scheme",
                   choices=["none", "start-gap", "table", "random-swap",
                            "rbsg", "sr", "multiway-sr", "two-level-sr",
                            "security-rbsg"])
    p.add_argument("--trace",
                   choices=["uniform", "zipf", "sequential", "raa"])
    p.add_argument("--trace-file", metavar="PATH",
                   help="drive the device with a loaded trace file "
                        "(MSR/SNIA CSV, optionally gzipped, or .rbt) "
                        "instead of a synthetic --trace")
    p.add_argument("--line-bytes", type=int, default=64,
                   help="bytes per memory line for CSV offset mapping")
    p.add_argument("--window-start", type=int, default=0,
                   help="first line address of the CSV mapping window")
    p.add_argument("--window-mode", choices=["wrap", "drop", "clamp"],
                   default="wrap",
                   help="how CSV addresses beyond --lines are normalised")
    p.add_argument("--lines", type=int, default=4096)
    p.add_argument("--endurance", type=float, default=1e4)
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="stop after this many user writes")
    p.add_argument("--interval", type=int, default=16)
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--outer", type=int, default=None,
                   help="outer remap interval (default: 2x --interval)")
    p.add_argument("--stages", type=int, default=7)
    p.add_argument("--alpha", type=float, default=1.2,
                   help="zipf skew exponent")
    p.add_argument("--target", type=int, default=5,
                   help="hammered address for --trace raa")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-fast", action="store_true",
                   help="use the scalar reference engine instead of the "
                        "batched fast path (results are bit-identical)")
    p.add_argument("--json", action="store_true",
                   help="emit a single JSON object instead of text")
    p.set_defaults(func=cmd_trace)
    trace_sub = p.add_subparsers(dest="trace_cmd")

    sp = trace_sub.add_parser(
        "convert", help="convert a CSV trace to the .rbt binary format"
    )
    sp.add_argument("csv", help="source CSV trace (plain or .gz)")
    sp.add_argument("rbt", help="destination .rbt file")
    sp.add_argument("--lines", type=int, required=True,
                    help="device size the addresses are normalised to")
    sp.add_argument("--line-bytes", type=int, default=64)
    sp.add_argument("--window-start", type=int, default=0)
    sp.add_argument("--window-mode", choices=["wrap", "drop", "clamp"],
                    default="wrap")
    sp.set_defaults(func=cmd_trace_convert)

    sp = trace_sub.add_parser(
        "info", help="summarise a CSV or .rbt trace file"
    )
    sp.add_argument("path", help="trace file (CSV, gzipped CSV, or .rbt)")
    sp.add_argument("--line-bytes", type=int, default=64,
                    help="bytes per line for the CSV line-write count")
    sp.add_argument("--json", action="store_true",
                    help="emit a single JSON object instead of text")
    sp.set_defaults(func=cmd_trace_info)

    p = sub.add_parser("overhead", help="hardware overhead table (§V-C3)")
    p.add_argument("--subregions", type=int, default=512)
    p.add_argument("--inner", type=int, default=64)
    p.add_argument("--outer", type=int, default=128)
    p.add_argument("--stages", type=int, default=7)
    p.add_argument("--json", action="store_true",
                   help="emit a single JSON object instead of text")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("stages", help="DFN security sizing (§IV-B)")
    p.add_argument("--outer-interval", type=int, default=128)
    p.set_defaults(func=cmd_stages)

    p = sub.add_parser("design", help="design-space advisor (Pareto front)")
    p.add_argument("--max-overhead", type=float, default=0.05)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("matrix", help="attack x scheme matrix (scaled device)")
    p.add_argument("--schemes", nargs="+", default=["none", "rbsg",
                                                    "security-rbsg"])
    p.add_argument("--attacks", nargs="+", default=["raa"])
    p.add_argument("--lines", type=int, default=2**8)
    p.add_argument("--endurance", type=float, default=5e3)
    p.add_argument("--budget", type=int, default=30_000_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (results identical to serial)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("faults", help="fault injection & resilience")
    p.add_argument("--schemes", nargs="+", default=["none", "rbsg",
                                                    "security-rbsg"])
    p.add_argument("--rates", nargs="+", type=float,
                   default=[0.0, 1e-3, 1e-2],
                   help="verify-failure base rates to sweep")
    p.add_argument("--read-disturb", type=float, default=0.0,
                   help="per-bit transient read-error probability")
    p.add_argument("--lines", type=int, default=2**8)
    p.add_argument("--endurance", type=float, default=2e3)
    p.add_argument("--spares", type=int, default=8)
    p.add_argument("--ecp", type=int, default=4,
                   help="ECP entries (correctable cells) per line")
    p.add_argument("--writes", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--side-channel", action="store_true",
                   help="run the verify-retry latency experiment instead")
    p.add_argument("--verify-fail", type=float, default=0.05,
                   help="verify-failure base rate for --side-channel")
    p.add_argument("--trials", type=int, default=400,
                   help="writes per probe for --side-channel")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (results identical to serial)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "campaign",
        help="parallel experiment campaigns (crash-safe, resumable)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_cmd", required=True)

    def add_runner_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = inline, deterministic "
                             "baseline)")
        sp.add_argument("--timeout", type=float, default=None,
                        help="per-task timeout in seconds")
        sp.add_argument("--retries", type=int, default=1,
                        help="extra attempts per failing task")
        sp.add_argument("--max-tasks", type=int, default=None,
                        help="stop after at most N tasks (smoke tests)")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress the stderr progress line")

    sp = campaign_sub.add_parser("run", help="start a campaign from a spec")
    sp.add_argument("spec", help="campaign spec file (.toml or .json)")
    sp.add_argument("--out", required=True,
                    help="campaign directory (manifest + results.jsonl)")
    add_runner_args(sp)
    sp.set_defaults(func=cmd_campaign_run)

    sp = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign"
    )
    sp.add_argument("out", help="campaign directory")
    add_runner_args(sp)
    sp.set_defaults(func=cmd_campaign_resume)

    sp = campaign_sub.add_parser("status", help="campaign progress counts")
    sp.add_argument("out", help="campaign directory")
    sp.set_defaults(func=cmd_campaign_status)

    sp = campaign_sub.add_parser(
        "report", help="aggregate results to JSON or CSV"
    )
    sp.add_argument("out", help="campaign directory")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--output", metavar="FILE",
                    help="write the report here instead of stdout")
    sp.set_defaults(func=cmd_campaign_report)

    sp = campaign_sub.add_parser(
        "compact",
        help="index completed tasks (sqlite) so resume skips the log scan",
    )
    sp.add_argument("out", help="campaign directory")
    sp.set_defaults(func=cmd_campaign_compact)

    # The linter's own parser (repro.lint.runner) reads every argument:
    # no prefix char of this subparser can start a flag, so REMAINDER
    # keeps leading options such as --list-rules for it.
    p = sub.add_parser(
        "lint", help="reprolint: simulator-invariant static analysis",
        add_help=False, prefix_chars="\0",
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("perf", help="IPC impact (§V-C4)")
    p.add_argument("--interval", type=int, default=64)
    p.add_argument("--ops", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_perf)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    result: int = args.func(args)
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
