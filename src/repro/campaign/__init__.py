"""repro.campaign — parallel experiment-campaign orchestration.

The one audited home of process-level parallelism in this library
(reprolint REP007 keeps ``multiprocessing``/``concurrent.futures`` out
of every other package).  A campaign is:

1. a **spec** (:mod:`repro.campaign.spec`) — a declarative parameter
   grid over a task kind, expanded deterministically into hashable
   :class:`~repro.campaign.spec.TaskKey` points;
2. a **store** (:mod:`repro.campaign.store`) — a crash-safe append-only
   JSONL checkpoint with a manifest, enabling kill-and-resume with no
   duplicated or lost points;
3. a **runner** (:mod:`repro.campaign.runner`) — a bounded
   process-pool fan-out with per-task seed derivation, timeouts,
   deterministic retries and worker-crash isolation;
4. an **aggregator** (:mod:`repro.campaign.aggregate`) — seed-averaged
   group summaries whose JSON/CSV exports are byte-identical between
   serial and parallel executions of the same spec.

CLI: ``python -m repro campaign run|resume|status|report|compact``;
example specs live in ``examples/campaigns/``; the full contract is
documented in ``docs/campaigns.md``.
"""

from repro.campaign.aggregate import aggregate, to_csv, to_json
from repro.campaign.progress import ProgressReporter
from repro.campaign.runner import (
    RunnerConfig,
    RunSummary,
    attempt_seed,
    run_campaign,
    run_collect,
    run_tasks,
)
from repro.campaign.spec import (
    CampaignSpec,
    SpecError,
    TaskKey,
    load_spec,
)
from repro.campaign.store import (
    CampaignStore,
    StoreError,
    StoreStatus,
    TaskRecord,
)
from repro.campaign.tasks import (
    TaskError,
    get_task,
    register_task_kind,
    registered_tasks,
    task_kinds,
)

__all__ = [
    "CampaignSpec",
    "CampaignStore",
    "ProgressReporter",
    "RunSummary",
    "RunnerConfig",
    "SpecError",
    "StoreError",
    "StoreStatus",
    "TaskError",
    "TaskKey",
    "TaskRecord",
    "aggregate",
    "attempt_seed",
    "get_task",
    "load_spec",
    "register_task_kind",
    "run_campaign",
    "run_collect",
    "run_tasks",
    "registered_tasks",
    "task_kinds",
    "to_csv",
    "to_json",
]
