"""Parallel fan-out engine: run task keys across worker processes.

Execution contract (the one the determinism tests pin down):

* **Seeding** — attempt 0 of a task runs with the task's own
  ``TaskKey.seed``; retry attempt ``k`` runs with
  ``derive_seed(seed, key_id, k)``.  Seeds depend only on the task and
  the attempt number, never on scheduling, so serial (``workers=1``)
  and parallel (``workers=N``) runs produce identical per-task results.
* **Isolation** — task exceptions are caught inside the worker and come
  back as ``error`` records.  A hard worker crash (segfault,
  ``os._exit``) breaks the :class:`~concurrent.futures.ProcessPoolExecutor`;
  the runner rebuilds the pool, charges every in-flight task one retry,
  and the campaign continues.  One bad point fails that point, not the
  campaign.
* **Timeouts** — a task overrunning ``timeout_s`` is charged a failed
  attempt immediately and its eventual result is discarded.  The clock
  starts when the task is observed *executing* in a worker, not at
  submit, so time spent queued behind saturated workers never counts
  against the limit.  The worker process is *not* killed mid-task
  (POSIX offers no safe way to do that to a fork-sharing child); the
  pool drains it at shutdown.
* **Bounded in-flight** — at most ``2 * workers`` tasks are submitted
  at once, so million-point grids don't materialise a million pickled
  futures.

``workers=1`` runs everything inline in the calling process — no pool,
no pickling — which is both the determinism baseline and the cheap path
for small sweeps (``attack_matrix``, ``sweep_fault_rates`` defaults).

Worker pools are created with the ``fork`` start method where the
platform offers it, so task kinds registered at runtime
(:func:`repro.campaign.tasks.register_task_kind`) are visible inside
workers; under spawn/forkserver only kinds registered at import time of
:mod:`repro.campaign.tasks` would survive the round-trip.  Each worker
exits on its own once the runner that forked it is gone, so a runner
killed outright leaves no worker behind.

Wall-clock use here times *host* execution (timeouts, throughput); the
simulator's clock is untouched, hence the file-wide REP005 waiver.
"""
# reprolint: disable-file=REP005 orchestration timeouts/throughput are host time

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec, TaskKey
from repro.campaign.store import CampaignStore, TaskRecord
from repro.campaign.tasks import get_task
from repro.util.rng import derive_seed

# Task kinds registered at runtime (register_task_kind) live in this
# process's registry dict; ``fork`` is the only start method that
# carries those registrations into workers, so pin it where available
# rather than inheriting a spawn/forkserver platform default.
try:
    _MP_CONTEXT: Optional[Any] = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _MP_CONTEXT = None


def _exit_with_runner(runner: int) -> None:
    """Pool worker initializer: exit once the runner that forked this
    worker is gone.  A runner killed outright (``kill -9``) never shuts its
    pool down, and its workers would wait on the call queue forever."""

    def watch() -> None:
        while os.getppid() == runner:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _make_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_MP_CONTEXT,
        initializer=_exit_with_runner,
        initargs=(os.getpid(),),
    )


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs of one campaign run."""

    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    max_tasks: Optional[int] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_tasks is not None and self.max_tasks < 0:
            raise ValueError("max_tasks must be >= 0")


@dataclass(frozen=True)
class RunSummary:
    """Outcome of one :func:`run_tasks` / :func:`run_campaign` call."""

    n_tasks: int  #: tasks this run was asked to execute
    n_ok: int
    n_failed: int  #: tasks that exhausted their retries
    n_skipped: int = 0  #: tasks already completed in the store (resume)
    stopped_early: bool = False  #: True when ``max_tasks`` cut the run short

    @property
    def complete(self) -> bool:
        return not self.stopped_early and self.n_failed == 0


def attempt_seed(key: TaskKey, attempt: int) -> int:
    """Seed for one attempt: the task's own seed, re-derived on retries."""
    if attempt == 0:
        return key.seed
    return derive_seed(key.seed, key.key_id, attempt)


def _execute_attempt(
    kind: str, params: Dict[str, object], seed: int
) -> Dict[str, object]:
    """Worker-process entry point: run one attempt, never raise.

    Module-level (picklable) and exception-free by construction: any
    task failure is folded into the returned payload so a worker never
    dies from an ordinary Python error.
    """
    try:
        fn = get_task(kind)
        result = fn(params, seed)  # type: ignore[arg-type]
        return {"status": "ok", "result": result}
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


Sink = Callable[[TaskRecord], None]


def run_tasks(
    tasks: Sequence[TaskKey],
    config: RunnerConfig,
    sink: Sink,
    reporter: Optional[ProgressReporter] = None,
) -> RunSummary:
    """Execute ``tasks``, delivering exactly one final record per task.

    ``sink`` receives a :class:`TaskRecord` per task — the successful
    attempt, or the last failed one after retries ran out.  Record
    *content* is schedule-independent; only the order ``sink`` sees them
    in differs between serial and parallel runs.
    """
    if reporter is None:
        reporter = ProgressReporter(len(tasks), enabled=False)
    if config.workers == 1:
        summary = _run_serial(tasks, config, sink, reporter)
    else:
        summary = _run_parallel(tasks, config, sink, reporter)
    reporter.finish()
    return summary


def _run_serial(
    tasks: Sequence[TaskKey],
    config: RunnerConfig,
    sink: Sink,
    reporter: ProgressReporter,
) -> RunSummary:
    n_ok = n_failed = 0
    for key in tasks:
        record: Optional[TaskRecord] = None
        for attempt in range(config.retries + 1):
            seed = attempt_seed(key, attempt)
            payload = _execute_attempt(key.kind, key.as_dict(), seed)
            record = _payload_record(key, attempt, seed, payload)
            if record.ok:
                break
        assert record is not None
        if record.ok:
            n_ok += 1
        else:
            n_failed += 1
        sink(record)
        reporter.task_done(record.ok)
    return RunSummary(n_tasks=len(tasks), n_ok=n_ok, n_failed=n_failed)


# ------------------------------------------------------------- parallel


@dataclass
class _Inflight:
    """Bookkeeping for one submitted attempt.

    ``started`` is the monotonic time the attempt was first observed
    occupying a worker slot — ``None`` while it is still queued behind
    saturated workers, so queue wait never counts against ``timeout_s``.
    (``Future.running()`` is useless for this: it flips as soon as the
    executor buffers the item in its call queue, worker or no worker.)
    """

    key: TaskKey
    attempt: int
    seed: int
    started: Optional[float] = None


def _payload_record(
    key: TaskKey, attempt: int, seed: int, payload: Dict[str, object]
) -> TaskRecord:
    if payload.get("status") == "ok":
        result = payload.get("result")
        return TaskRecord(
            key=key, attempt=attempt, task_seed=seed,
            status="ok", result=dict(result) if isinstance(result, dict) else {},
        )
    return TaskRecord(
        key=key, attempt=attempt, task_seed=seed,
        status="error", error=str(payload.get("error", "unknown error")),
    )


def _run_parallel(
    tasks: Sequence[TaskKey],
    config: RunnerConfig,
    sink: Sink,
    reporter: ProgressReporter,
) -> RunSummary:
    max_inflight = 2 * config.workers
    pending: Deque[Tuple[TaskKey, int]] = deque((key, 0) for key in tasks)
    inflight: Dict["Future[Dict[str, object]]", _Inflight] = {}
    # Timed-out attempts whose future could not be cancelled: the
    # straggler still occupies a worker until it finishes, so it keeps
    # counting against the executing-slot budget below.
    abandoned: Set["Future[Dict[str, object]]"] = set()
    # key_ids that already produced their final record.  An abandoned
    # (timed-out) attempt whose straggler future completes later — or
    # any other duplicate settle of an already-finished task — must
    # neither touch the counters again nor hand the sink a second
    # record for the same key_id.
    final_ids: Set[str] = set()
    n_ok = n_failed = 0
    executor = _make_pool(config.workers)

    _POOL_BROKEN = {
        "status": "error",
        "error": "worker process crashed (pool broken)",
    }

    def submit(key: TaskKey, attempt: int) -> None:
        seed = attempt_seed(key, attempt)
        future = executor.submit(
            _execute_attempt, key.kind, key.as_dict(), seed
        )
        inflight[future] = _Inflight(key, attempt, seed)

    def settle(key: TaskKey, attempt: int, seed: int,
               payload: Dict[str, object]) -> None:
        """Record a finished attempt: retry on failure, else emit.

        Exactly one final record per ``key_id``: a late duplicate (an
        abandoned straggler's eventual result, a retry racing a
        poisoned pool) is dropped on the floor here, so neither
        :class:`RunSummary` nor the store ever double-counts a task.
        """
        nonlocal n_ok, n_failed
        if key.key_id in final_ids:
            return
        record = _payload_record(key, attempt, seed, payload)
        if not record.ok and attempt < config.retries:
            pending.append((key, attempt + 1))
            return
        final_ids.add(key.key_id)
        if record.ok:
            n_ok += 1
        else:
            n_failed += 1
        sink(record)
        reporter.task_done(record.ok)

    def poison_inflight_and_rebuild() -> None:
        """Every in-flight future is poisoned with the broken pool:
        charge each task one attempt and start a fresh pool."""
        nonlocal executor
        for entry in list(inflight.values()):
            settle(entry.key, entry.attempt, entry.seed, dict(_POOL_BROKEN))
        inflight.clear()
        abandoned.clear()  # stragglers died with their pool
        executor.shutdown(wait=False, cancel_futures=True)
        executor = _make_pool(config.workers)

    try:
        while pending or inflight:
            while pending and len(inflight) < max_inflight:
                key, attempt = pending.popleft()
                try:
                    submit(key, attempt)
                except BrokenProcessPool:
                    # A worker crash can flag the pool mid-submit,
                    # before any future.result() observes it.  The
                    # attempt being submitted never ran: requeue it
                    # uncharged and recover like any other break.
                    pending.appendleft((key, attempt))
                    poison_inflight_and_rebuild()
            done, _ = wait(
                list(inflight), timeout=0.05, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                entry = inflight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    broken = True
                    payload = dict(_POOL_BROKEN)
                except Exception as exc:  # pickling errors and friends
                    payload = {
                        "status": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                settle(entry.key, entry.attempt, entry.seed, payload)
            if broken:
                poison_inflight_and_rebuild()
                continue
            if config.timeout_s is not None:
                now = time.monotonic()
                # Workers drain the call queue FIFO, so of the attempts
                # not yet finished, the oldest ones — up to the worker
                # count, minus stragglers still hogging a worker — are
                # the ones executing.  Start (only) their clocks, and
                # leave queued attempts untouched.
                abandoned.difference_update(
                    {f for f in abandoned if f.done()}
                )
                slots = config.workers - len(abandoned)
                for future, entry in list(inflight.items()):
                    if slots <= 0:
                        break  # everything younger is still queued
                    if future.done():
                        continue  # settles on the next wait() pass
                    slots -= 1
                    if entry.started is None:
                        entry.started = now
                        continue
                    if now - entry.started <= config.timeout_s:
                        continue
                    # Charge the attempt now; the straggler's eventual
                    # result is dropped with the abandoned future.
                    if not future.cancel():
                        abandoned.add(future)
                    inflight.pop(future)
                    settle(
                        entry.key, entry.attempt, entry.seed,
                        {
                            "status": "error",
                            "error": (
                                f"timeout after {config.timeout_s:g}s "
                                "(worker abandoned)"
                            ),
                        },
                    )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return RunSummary(n_tasks=len(tasks), n_ok=n_ok, n_failed=n_failed)


def run_collect(
    tasks: Sequence[TaskKey], config: RunnerConfig
) -> List[TaskRecord]:
    """Run ``tasks`` and return their final records **in task order**.

    The in-memory convenience for library callers
    (:func:`repro.experiments.attack_matrix`,
    :func:`repro.analysis.resilience.sweep_fault_rates`) that want the
    parallel fan-out without a campaign directory: no store, no resume —
    just records, re-ordered from completion order back to input order
    so results are schedule-independent.
    """
    by_id: Dict[str, TaskRecord] = {}

    def sink(record: TaskRecord) -> None:
        by_id[record.key.key_id] = record

    run_tasks(tasks, config, sink)
    return [by_id[key.key_id] for key in tasks]


# ------------------------------------------------------------- campaign


def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    config: RunnerConfig,
) -> RunSummary:
    """Expand ``spec``, skip tasks the store already completed, run the rest.

    This is the ``campaign run``/``campaign resume`` engine: records are
    checkpointed through :meth:`CampaignStore.append` as they finish, so
    a kill at any instant loses at most the in-flight tasks — never a
    finished one.
    """
    all_tasks = spec.expand()
    done = store.completed_ids()
    todo: List[TaskKey] = [t for t in all_tasks if t.key_id not in done]
    n_skipped = len(all_tasks) - len(todo)
    stopped_early = False
    if config.max_tasks is not None and len(todo) > config.max_tasks:
        todo = todo[: config.max_tasks]
        stopped_early = True
    reporter = ProgressReporter(len(todo), enabled=config.progress)
    summary = run_tasks(todo, config, store.append, reporter)
    return RunSummary(
        n_tasks=summary.n_tasks,
        n_ok=summary.n_ok,
        n_failed=summary.n_failed,
        n_skipped=n_skipped,
        stopped_early=stopped_early,
    )
