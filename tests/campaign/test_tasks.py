"""Tests for the shipped campaign task kinds."""

from pathlib import Path

import pytest

from repro.campaign import tasks
from repro.campaign.spec import load_spec
from repro.campaign.tasks import (
    TaskError,
    get_task,
    run_trace_lifetime_task,
    task_kinds,
)
from repro.cli import build_parser
from repro.config import PAPER_PCM

DATA = Path(__file__).parent.parent / "data"
EXAMPLE_SPECS = Path(__file__).parent.parent.parent / "examples" / "campaigns"


class TestPaperScaleDefaults:
    """The paper-scale preset and its task default to the paper's device:
    a 1 GB bank of 256 B lines, 2^22 lines."""

    def test_cli_preset_lines(self):
        args = build_parser().parse_args(
            ["lifetime", "--paper-scale", "--scheme", "security-rbsg"]
        )
        assert args.lines == PAPER_PCM.n_lines == 1 << 22

    def test_lifetime_ff_task_lines(self, monkeypatch):
        built = []

        def stop(name, n_lines, seed, params):
            built.append(n_lines)
            raise TaskError("stop before the run")

        monkeypatch.setattr(tasks, "build_scheme", stop)
        with pytest.raises(TaskError, match="stop before the run"):
            get_task("lifetime-ff")({"scheme": "security-rbsg", "trace": "uniform"}, 1)
        assert built == [PAPER_PCM.n_lines]


class TestLifetimeFFParameters:
    """``lifetime-ff`` refuses a key it does not read rather than run a
    device other than the spec names."""

    BASE = {"scheme": "security-rbsg", "trace": "uniform"}

    @pytest.fixture(autouse=True)
    def stop_before_the_run(self, monkeypatch):
        def stop(name, n_lines, seed, params):
            raise TaskError("stop before the run")

        monkeypatch.setattr(tasks, "build_scheme", stop)

    @pytest.mark.parametrize(
        "extra",
        [{"spares": 64}, {"interva": 8}, {"n_spares": 8, "fast": True}],
        ids=["spares", "typo", "other-tasks-keys"],
    )
    def test_unknown_keys_raise(self, extra):
        with pytest.raises(TaskError) as info:
            get_task("lifetime-ff")({**self.BASE, **extra}, 1)
        assert str(info.value) == (
            f"lifetime-ff does not take parameters {sorted(extra)}"
        )

    def test_every_key_it_reads_is_accepted(self):
        params = {
            **self.BASE, "lines": 256, "endurance": 1e4, "max_writes": 10,
            "alpha": 1.1, "target": 3, "fast_forward": "off",
            **{key: 4 for key in tasks.SCHEME_PARAMS},
        }
        with pytest.raises(TaskError, match="stop before the run"):
            get_task("lifetime-ff")(params, 1)


#: Each task kind with parameters it reads (a tiny device, a short run)
#: and a key it does not read.
KIND_PARAMS = {
    "lifetime": ({"scheme": "rbsg", "attack": "rta", "regions": 8}, "subregion"),
    "simulate": (
        {"scheme": "none", "attack": "raa", "lines": 64, "endurance": 50,
         "budget": 100, "interval": 4},
        "n_shards",
    ),
    "trace-lifetime": (
        {"scheme": "none", "trace": "uniform", "lines": 64, "endurance": 50,
         "max_writes": 100},
        "endurnace",
    ),
    "faults": (
        {"scheme": "none", "n_lines": 64, "endurance": 50, "n_writes": 100},
        "n_spare",
    ),
}


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
def test_task_kind_refuses_a_key_it_does_not_read(kind):
    """Every kind runs with the keys it reads and refuses any other,
    rather than run a device other than the spec names."""
    params, typo = KIND_PARAMS[kind]
    assert isinstance(get_task(kind)(params, 1), dict)
    with pytest.raises(TaskError) as info:
        get_task(kind)({**params, typo: 5}, 1)
    assert str(info.value) == f"{kind} does not take parameters {[typo]}"


@pytest.mark.parametrize(
    "spec", sorted(EXAMPLE_SPECS.glob("*.toml")), ids=lambda path: path.stem
)
def test_example_campaign_parameters_accepted(spec, monkeypatch):
    """Every point of the shipped campaign specs passes its kind's
    parameter check: each stops at the run, not at the check."""

    def stop(*args, **kwargs):
        raise TaskError("stop before the run")

    monkeypatch.setattr(tasks, "build_scheme", stop)
    monkeypatch.setattr("repro.analysis.resilience.run_fault_campaign", stop)
    for key in load_spec(spec).expand():
        with pytest.raises(TaskError, match="stop before the run"):
            get_task(key.kind)(dict(key.params), key.seed)


class TestTraceLifetimeTask:
    def test_registered(self):
        assert "trace-lifetime" in task_kinds()
        assert get_task("trace-lifetime") is run_trace_lifetime_task

    def test_engines_bit_identical(self):
        params = {
            "scheme": "rbsg",
            "trace": "uniform",
            "lines": 256,
            "endurance": 500,
            "max_writes": 500_000,
        }
        fast = run_trace_lifetime_task({**params, "fast": True}, seed=3)
        scalar = run_trace_lifetime_task({**params, "fast": False}, seed=3)
        assert fast["engine"] == "batched"
        assert scalar["engine"] == "scalar"
        fast.pop("engine")
        scalar.pop("engine")
        assert fast == scalar
        assert fast["failed"]

    def test_result_is_jsonable(self):
        import json

        result = run_trace_lifetime_task(
            {"scheme": "none", "trace": "raa", "lines": 64,
             "endurance": 100, "max_writes": 1000},
            seed=0,
        )
        round_tripped = json.loads(json.dumps(result))
        assert round_tripped["failed"] is True
        assert round_tripped["write_amplification"] == 1.0

    def test_unknown_trace_kind_rejected(self):
        with pytest.raises(TaskError, match="unknown trace kind"):
            run_trace_lifetime_task(
                {"scheme": "none", "trace": "bogus"}, seed=0
            )

    def test_trace_parameter_required(self):
        with pytest.raises(TaskError, match="trace"):
            run_trace_lifetime_task({"scheme": "none"}, seed=0)


@pytest.mark.parametrize("kind", ["trace-lifetime", "lifetime-ff"])
@pytest.mark.parametrize(
    "extra, message",
    [
        ({"max_writes": -5}, "max_writes must be >= 0, got -5"),
        ({"trace": "raa", "target": 99999}, "raa target 99999 outside [0, 64)"),
        ({"trace": "raa", "target": -1}, "raa target -1 outside [0, 64)"),
        ({"trace": "zipf", "alpha": 0}, "alpha must be positive"),
    ],
    ids=["negative-budget", "target-off-device", "negative-target", "zero-alpha"],
)
def test_trace_task_refuses_a_trace_it_cannot_run(kind, extra, message):
    """A budget or trace no run can honour is a :class:`TaskError`, not a
    zero-write result or a traceback from inside the engine."""
    params = {"scheme": "none", "trace": "uniform", "lines": 64,
              "endurance": 50, **extra}
    with pytest.raises(TaskError) as info:
        get_task(kind)(params, 1)
    assert str(info.value) == message


class TestTraceFileParameter:
    def test_rbt_file_drives_the_task(self):
        params = {
            "scheme": "security-rbsg",
            "trace_file": str(DATA / "msr_sample.rbt"),
            "lines": 4096,
            "endurance": 100,
        }
        fast = run_trace_lifetime_task({**params, "fast": True}, seed=0)
        scalar = run_trace_lifetime_task({**params, "fast": False}, seed=0)
        assert fast["user_writes"] == 5354
        fast.pop("engine")
        scalar.pop("engine")
        assert fast == scalar

    def test_csv_file_accepted_directly(self):
        result = run_trace_lifetime_task(
            {"scheme": "none",
             "trace_file": str(DATA / "msr_sample.csv"),
             "lines": 512, "endurance": 1e6},
            seed=0,
        )
        assert result["user_writes"] == 5354
        assert result["trace"] == "file"

    def test_missing_file_raises_loader_error(self):
        from repro.traffic import TraceFileMissingError

        with pytest.raises(TraceFileMissingError):
            run_trace_lifetime_task(
                {"scheme": "none", "trace_file": "/nope.rbt"}, seed=0
            )

    @pytest.mark.parametrize("extra, message", [
        ({"line_bytes": 0}, "line_bytes must be >= 1"),
        ({"window_mode": "fold"}, "unknown window mode 'fold'"),
    ], ids=["line-bytes", "window-mode"])
    def test_refused_window_is_a_task_error(self, extra, message):
        with pytest.raises(TaskError, match=message):
            run_trace_lifetime_task(
                {"scheme": "none", "trace_file": str(DATA / "msr_sample.csv"),
                 "lines": 64, **extra},
                seed=0,
            )


def test_simulate_refuses_a_negative_budget():
    """A negative attack budget is a :class:`TaskError`, not a run that
    "survives" zero writes."""
    with pytest.raises(TaskError) as info:
        get_task("simulate")(
            {"scheme": "rbsg", "attack": "raa", "lines": 64, "budget": -1}, 1
        )
    assert str(info.value) == "budget must be >= 0, got -1"


@pytest.mark.parametrize("seed", [0, 3])
def test_scheme_factories_are_build_scheme(seed):
    """``repro.experiments.SCHEME_FACTORIES`` builds every scheme exactly
    as ``build_scheme`` does with no parameters: same names, same pickled
    state (registers, keys and generator)."""
    import pickle

    from repro.experiments import SCHEME_FACTORIES, SCHEME_NAMES

    assert tuple(SCHEME_FACTORIES) == SCHEME_NAMES
    for name, factory in SCHEME_FACTORIES.items():
        assert pickle.dumps(factory(2**7, seed)) == pickle.dumps(
            tasks.build_scheme(name, 2**7, seed, {})
        ), name
