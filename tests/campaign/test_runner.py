"""Tests for the campaign runner: determinism, retries, crash isolation.

The custom task kinds are registered at import time; the runner pins
the ``fork`` start method, so the registrations are visible inside the
pool regardless of the platform's default.
"""

import os
import time

import pytest

from repro.campaign.aggregate import aggregate, to_json
from repro.campaign.runner import (
    RunnerConfig,
    attempt_seed,
    run_campaign,
    run_collect,
    run_tasks,
)
from repro.campaign.spec import CampaignSpec, TaskKey
from repro.campaign.store import CampaignStore
from repro.campaign.tasks import register_task_kind


def echo_task(params, seed):
    return {"value": params["x"] * 2, "seed_used": seed}


def flaky_task(params, seed):
    # Attempt 0 runs with the task's own (small) seed; retries run with
    # a derived 63-bit seed, so this fails exactly once per task.
    if seed < 10**6:
        raise RuntimeError("transient failure")
    return {"value": 1}


def crash_task(params, seed):
    os._exit(1)


def crash_once_task(params, seed):
    # Seed-gated like flaky_task: the fork dies on attempt 0 only.
    if seed < 10**6:
        os._exit(1)
    return {"value": 1}


def sleep_task(params, seed):
    time.sleep(params["duration"])
    return {"value": 1}


register_task_kind("t-echo", echo_task)
register_task_kind("t-flaky", flaky_task)
register_task_kind("t-crash", crash_task)
register_task_kind("t-crash-once", crash_once_task)
register_task_kind("t-sleep", sleep_task)


def echo_keys(n=4):
    return [TaskKey.create("t-echo", {"x": i}, seed=i) for i in range(n)]


class TestAttemptSeed:
    def test_attempt_zero_is_task_seed(self):
        key = TaskKey.create("k", {"a": 1}, seed=42)
        assert attempt_seed(key, 0) == 42

    def test_retries_rederive_deterministically(self):
        key = TaskKey.create("k", {"a": 1}, seed=42)
        first = attempt_seed(key, 1)
        assert first == attempt_seed(key, 1)
        assert first != 42
        assert attempt_seed(key, 2) != first

    def test_retry_seed_depends_on_task_identity(self):
        a = TaskKey.create("k", {"a": 1}, seed=42)
        b = TaskKey.create("k", {"a": 2}, seed=42)
        assert attempt_seed(a, 1) != attempt_seed(b, 1)


class TestRunnerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"retries": -1},
            {"timeout_s": 0.0},
            {"max_tasks": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunnerConfig(**kwargs)


class TestRunCollect:
    def test_serial_returns_records_in_task_order(self):
        keys = echo_keys()
        records = run_collect(keys, RunnerConfig(workers=1))
        assert [r.key for r in records] == keys
        assert [r.result["value"] for r in records] == [0, 2, 4, 6]
        assert all(r.ok and r.attempt == 0 for r in records)
        assert [r.task_seed for r in records] == [0, 1, 2, 3]

    def test_parallel_returns_records_in_task_order(self):
        keys = echo_keys(8)
        records = run_collect(keys, RunnerConfig(workers=2))
        assert [r.key for r in records] == keys
        assert [r.result["value"] for r in records] == [
            2 * i for i in range(8)
        ]


class TestDeterminism:
    def test_serial_and_parallel_results_are_identical(self):
        # A genuinely seeded task kind: the PR-1 fault campaign on a
        # tiny device.  Any schedule-dependent seeding shows up here.
        spec = CampaignSpec.create(
            "det", "faults", n_seeds=2,
            base={
                "n_lines": 64, "endurance": 400.0, "n_writes": 400,
                "n_spares": 4, "verify_fail_base": 0.01,
            },
            grid={"scheme": ["none", "rbsg"]},
        )
        keys = spec.expand()
        serial = run_collect(keys, RunnerConfig(workers=1, retries=0))
        parallel = run_collect(keys, RunnerConfig(workers=2, retries=0))
        assert all(r.ok for r in serial)
        assert serial == parallel  # same records, bit for bit
        assert to_json(aggregate(serial)) == to_json(aggregate(parallel))


class TestFailureHandling:
    def test_retry_succeeds_with_derived_seed(self):
        keys = [TaskKey.create("t-flaky", {"x": 1}, seed=0)]
        (record,) = run_collect(keys, RunnerConfig(workers=1, retries=1))
        assert record.ok
        assert record.attempt == 1
        assert record.task_seed == attempt_seed(keys[0], 1)

    def test_retries_exhausted_yields_error_record(self):
        keys = [TaskKey.create("t-flaky", {"x": 1}, seed=0)]
        (record,) = run_collect(keys, RunnerConfig(workers=1, retries=0))
        assert not record.ok
        assert "transient failure" in record.error

    def test_parallel_retry_matches_serial(self):
        keys = [
            TaskKey.create("t-flaky", {"x": i}, seed=i) for i in range(4)
        ]
        serial = run_collect(keys, RunnerConfig(workers=1, retries=1))
        parallel = run_collect(keys, RunnerConfig(workers=2, retries=1))
        assert serial == parallel
        assert all(r.ok and r.attempt == 1 for r in serial)

    def test_worker_crash_becomes_error_record(self):
        keys = [TaskKey.create("t-crash", {"x": 0}, seed=0)]
        (record,) = run_collect(keys, RunnerConfig(workers=2, retries=0))
        assert not record.ok
        assert "crashed" in record.error

    def test_pool_rebuilds_after_crash_and_campaign_continues(self):
        # One pool break maximum (the crash is seed-gated to attempt 0),
        # so one retry suffices for every task the break poisons.
        keys = [TaskKey.create("t-crash-once", {"x": 0}, seed=0)] + [
            TaskKey.create("t-echo", {"x": i}, seed=i) for i in range(1, 4)
        ]
        records = run_collect(keys, RunnerConfig(workers=2, retries=1))
        assert all(r.ok for r in records)
        assert records[0].attempt == 1  # the crasher recovered on retry

    def test_broken_pool_at_submit_time_recovers(self, monkeypatch):
        # A worker crash can flag the pool while the main loop is mid
        # submit batch, before any future.result() observes it; the
        # runner must requeue the attempt and rebuild, not abort.
        from concurrent.futures.process import BrokenProcessPool

        import repro.campaign.runner as runner_mod

        real_make_pool = runner_mod._make_pool
        pools = []

        class TrippingPool:
            """First submit of the first pool raises BrokenProcessPool."""

            def __init__(self, pool):
                self._pool = pool
                self.tripped = False

            def submit(self, *args, **kwargs):
                if not self.tripped:
                    self.tripped = True
                    raise BrokenProcessPool("worker crashed during submit")
                return self._pool.submit(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                return self._pool.shutdown(*args, **kwargs)

        def make_pool(workers):
            pool = real_make_pool(workers)
            if not pools:
                pool = TrippingPool(pool)
            pools.append(pool)
            return pool

        monkeypatch.setattr(runner_mod, "_make_pool", make_pool)
        keys = echo_keys(4)
        records = run_collect(keys, RunnerConfig(workers=2, retries=0))
        assert len(pools) == 2  # rebuilt exactly once
        assert all(r.ok for r in records)  # nothing charged an attempt
        assert all(r.attempt == 0 for r in records)

    def test_timeout_charges_the_attempt(self):
        keys = [TaskKey.create("t-sleep", {"duration": 1.5}, seed=0)]
        start = time.monotonic()
        (record,) = run_collect(
            keys, RunnerConfig(workers=2, timeout_s=0.2, retries=0)
        )
        assert time.monotonic() - start < 1.4  # did not wait the sleep out
        assert not record.ok
        assert "timeout" in record.error

    def test_queue_wait_is_not_charged_against_timeout(self):
        # 4 sleeps on 2 workers with all 4 submitted up front: the back
        # pair queues for ~one full task duration before running.  Each
        # task's *execution* fits the timeout; queue wait must not be
        # billed to it.
        keys = [
            TaskKey.create("t-sleep", {"duration": 0.5, "i": i}, seed=i)
            for i in range(4)
        ]
        records = run_collect(
            keys,
            RunnerConfig(workers=2, timeout_s=0.75, retries=0),
        )
        assert all(r.ok for r in records), [r.error for r in records]


class TestRunCampaign:
    def make(self, tmp_path):
        spec = CampaignSpec.create(
            "resume", "t-echo", grid={"x": [0, 1, 2, 3]}
        )
        store = CampaignStore.create(tmp_path / "camp", spec)
        return spec, store

    def test_max_tasks_stops_early(self, tmp_path):
        spec, store = self.make(tmp_path)
        with store:
            summary = run_campaign(spec, store, RunnerConfig(max_tasks=2))
        assert (summary.n_ok, summary.stopped_early) == (2, True)
        assert not summary.complete

    def test_resume_skips_completed_tasks(self, tmp_path):
        spec, store = self.make(tmp_path)
        with store:
            run_campaign(spec, store, RunnerConfig(max_tasks=2))
        with CampaignStore.open(store.directory) as reopened:
            summary = run_campaign(spec, reopened, RunnerConfig())
        assert (summary.n_ok, summary.n_skipped) == (2, 2)
        assert summary.complete
        status = CampaignStore.open(store.directory).status()
        assert status.complete and status.n_ok == 4

    def test_resume_of_complete_campaign_is_a_noop(self, tmp_path):
        spec, store = self.make(tmp_path)
        with store:
            run_campaign(spec, store, RunnerConfig())
            summary = run_campaign(spec, store, RunnerConfig())
        assert (summary.n_tasks, summary.n_skipped) == (0, 4)
        assert summary.complete


def straggle_task(params, seed):
    # Attempt 0 (small task seed) hogs its worker past the timeout;
    # retries (derived 63-bit seed) return instantly.
    if seed < 10**6:
        time.sleep(params["duration"])
    return {"value": 1}


register_task_kind("t-straggle", straggle_task)


class TestStragglerAccounting:
    def test_abandoned_straggler_settles_exactly_once(self):
        # Attempt 0 of each task is abandoned on timeout while the
        # worker is still executing it (the future cannot be cancelled).
        # The straggler's eventual completion must not produce a second
        # sink record or bump the counters again — the retry (attempt 1)
        # alone decides the task.
        keys = [
            TaskKey.create("t-straggle", {"duration": 0.6, "x": i}, seed=i)
            for i in range(2)
        ]
        records = []
        summary = run_tasks(
            keys,
            RunnerConfig(workers=2, timeout_s=0.2, retries=1),
            records.append,
        )
        assert (summary.n_tasks, summary.n_ok, summary.n_failed) == (2, 2, 0)
        assert len(records) == 2
        assert sorted(r.key.key_id for r in records) == sorted(
            k.key_id for k in keys
        )
        assert all(r.ok and r.attempt == 1 for r in records)

    def test_straggler_without_retries_charges_one_failure(self):
        keys = [TaskKey.create("t-straggle", {"duration": 0.6}, seed=0)]
        records = []
        summary = run_tasks(
            keys,
            RunnerConfig(workers=2, timeout_s=0.2, retries=0),
            records.append,
        )
        assert (summary.n_ok, summary.n_failed) == (0, 1)
        assert len(records) == 1
        assert "timeout" in records[0].error
