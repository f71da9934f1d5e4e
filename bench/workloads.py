"""The six benchmark workloads: what each builds, runs and must output.

Every workload builds its scheme, controller, trace spec or attack through
the library's public constructors and compares a ``SimulationResult`` by
its five named fields, never by dataclass equality, so the benchmark keeps
working when the library grows new modules or result fields.

Each run of a workload is a fixed amount of work, or runs a device to a
failure point that barely moves with the seed (``rta-attack``, and the
``ff-*`` lifetimes, whose sizes keep the random drop-back tail short).  A
to-failure RAA run is not steady enough to time: at 2^11 lines and
E = 10^4 its length spans 0.79M to 2.79M writes over seeds 1-8, so
``raa-lifetime`` times a fixed slice of that lifetime instead, with an
endurance no line can reach inside it (at E = 10^4 a few seeds fail
within it).  Every run of the slice must make as many movement writes
(total minus user writes) as the chunk-exact engine makes on any seed,
within ``ENVELOPE_SLACK``.

Runs are kept to 0.1-0.3 s so that one measurement holds many of them: the
median of many short runs is steadier on a shared host than that of a few
long ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.ballsbins import dwells_to_max_load
from repro.attacks import AttackResult, RBSGTimingAttack
from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.sim.engine import SimulationResult, run_trace, run_trace_fast
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.wearlevel import RegionBasedStartGap, TwoLevelSecurityRefresh

#: Sub-regions of every region-partitioned scheme here.
N_SUBREGIONS = 8
#: Logical line hammered by the RAA and timing-attack workloads.
TARGET_LA = 5
#: Writes compared between the scalar and chunk engines on chunk workloads.
PREFIX_WRITES = 50_000
#: The RAA movement-writes envelope is widened by this share on each side.
ENVELOPE_SLACK = 0.03

Outputs = Dict[str, Union[int, float, bool, str, None]]
Check = Tuple[str, bool]
RESULT_FIELDS = ("user_writes", "total_writes", "elapsed_ns", "failed", "failed_pa")


@dataclass
class Built:
    """What one workload run drives; the tracer wraps these instances."""

    controller: MemoryController
    spec: Optional[TraceSpec] = None
    attack: Optional[RBSGTimingAttack] = None


def wear_sha256(controller: MemoryController) -> str:
    """Digest of the per-line wear array (bit-identity fingerprint)."""
    return hashlib.sha256(controller.array.wear.tobytes()).hexdigest()


@dataclass(frozen=True)
class EngineWorkload:
    """A controller driven by a :class:`TraceSpec` through ``run_trace_fast``.

    ``n_writes=None`` runs the device to failure.  ``batch`` is
    ``run_trace_fast``'s chunk size, which also sets the fast-forward
    drop-back floor ``max(8 * batch, n_lines // 8)``.
    """

    name: str
    scheme: str
    n_lines: int
    interval: int
    trace: str
    endurance: float = 1e15
    n_writes: Optional[int] = None
    fast_forward: str = "off"
    batch: int = 8192

    root = "engine"

    def setup(self, seed: int) -> Built:
        config = PCMConfig(n_lines=self.n_lines, endurance=self.endurance)
        scheme: Union[SecurityRBSG, TwoLevelSecurityRefresh]
        if self.scheme == "security-rbsg":
            scheme = SecurityRBSG(
                self.n_lines,
                n_subregions=N_SUBREGIONS,
                inner_interval=self.interval,
                outer_interval=2 * self.interval,
                n_stages=7,
                rng=seed,
            )
        else:
            scheme = TwoLevelSecurityRefresh(
                self.n_lines,
                n_subregions=N_SUBREGIONS,
                inner_interval=self.interval,
                outer_interval=2 * self.interval,
                rng=seed,
            )
        spec = TraceSpec(
            kind=self.trace,
            n_lines=self.n_lines,
            n_writes=self.n_writes,
            target=TARGET_LA if self.trace == "raa" else 0,
            seed=seed,
        )
        return Built(MemoryController(scheme, config), spec=spec)

    def run(self, built: Built) -> SimulationResult:
        assert built.spec is not None
        return run_trace_fast(
            built.controller,
            built.spec,
            batch=self.batch,
            fast_forward=self.fast_forward,
        )

    def outputs(self, built: Built, result: SimulationResult) -> Outputs:
        out: Outputs = {key: getattr(result, key) for key in RESULT_FIELDS}
        out["wear_sha256"] = wear_sha256(built.controller)
        if self.n_writes is None:
            # Balls-into-bins lifetime model and its error band sqrt(2 ln N / E).
            n_physical = built.controller.scheme.n_physical
            reference = dwells_to_max_load(self.endurance, n_physical)
            out["lifetime_rel_err"] = abs(result.total_writes / reference - 1)
            out["lifetime_band"] = math.sqrt(2 * math.log(n_physical) / self.endurance)
        return out

    def check(
        self,
        out: Outputs,
        pinned: Optional[Outputs] = None,
        envelope: Optional[List[int]] = None,
    ) -> List[Check]:
        """Checks any seed must pass, plus the committed pins and envelope."""
        checks: List[Check] = []
        if self.n_writes is None:
            err, band = out["lifetime_rel_err"], out["lifetime_band"]
            assert isinstance(err, float) and isinstance(band, float)
            checks.append(("device failed", out["failed"] is True))
            checks.append((f"lifetime_rel_err {err:.2e} <= {band:.2e}", err <= band))
        else:
            checks.append(("no failure", out["failed"] is False))
            checks.append(
                (f"user_writes == {self.n_writes}", out["user_writes"] == self.n_writes)
            )
        if envelope is not None:
            # Remap and swap writes for the slice: the part a change to the
            # scheme's remapping or to the engine tiers could move.
            low = envelope[0] * (1 - ENVELOPE_SLACK)
            high = envelope[1] * (1 + ENVELOPE_SLACK)
            total, user = out["total_writes"], out["user_writes"]
            assert isinstance(total, int) and isinstance(user, int)
            moved = total - user
            checks.append(
                (f"movement writes {moved} in [{low:.0f}, {high:.0f}]", low <= moved <= high)
            )
        if pinned is not None and self.fast_forward == "off":
            # The chunk engine is bit-identical by contract: pin everything.
            for key, value in pinned.items():
                checks.append((f"{key} matches expected.json", out.get(key) == value))
        return checks

    def prefix_check(self, seed: int) -> List[Check]:
        """The first writes agree between the scalar and the chunk engine."""
        assert self.n_writes is not None
        prefix = min(PREFIX_WRITES, self.n_writes)
        scalar, chunked = self.setup(seed), self.setup(seed)
        assert scalar.spec is not None and chunked.spec is not None
        a = run_trace(scalar.controller, scalar.spec, max_writes=prefix)
        b = run_trace_fast(chunked.controller, chunked.spec, max_writes=prefix)
        same = all(getattr(a, key) == getattr(b, key) for key in RESULT_FIELDS)
        same = same and wear_sha256(scalar.controller) == wear_sha256(chunked.controller)
        return [(f"first {prefix} writes: run_trace == run_trace_fast", same)]


@dataclass(frozen=True)
class AttackWorkload:
    """The Remapping Timing Attack on RBSG, run to device failure."""

    name: str
    n_lines: int = 512
    n_regions: int = 8
    interval: int = 8
    endurance: float = 2e4

    root = "attack"
    fast_forward = "off"
    n_writes = None

    def setup(self, seed: int) -> Built:
        scheme = RegionBasedStartGap(
            self.n_lines, n_regions=self.n_regions, remap_interval=self.interval, rng=seed
        )
        config = PCMConfig(n_lines=self.n_lines, endurance=self.endurance)
        controller = MemoryController(scheme, config)
        return Built(controller, attack=RBSGTimingAttack(controller, target_la=TARGET_LA))

    def run(self, built: Built) -> AttackResult:
        assert built.attack is not None
        return built.attack.run()

    def outputs(self, built: Built, result: AttackResult) -> Outputs:
        return {
            "user_writes": result.user_writes,
            "total_writes": built.controller.total_writes,
            "elapsed_ns": result.elapsed_ns,
            "failed": result.failed,
            "failed_pa": result.failed_pa,
            "detection_writes": result.detection_writes,
            "wear_sha256": wear_sha256(built.controller),
        }

    def check(
        self,
        out: Outputs,
        pinned: Optional[Outputs] = None,
        envelope: Optional[List[int]] = None,
    ) -> List[Check]:
        checks: List[Check] = [("device failed", out["failed"] is True)]
        if pinned is not None:
            for key in ("user_writes", "detection_writes", "failed_pa"):
                checks.append((f"{key} matches expected.json", out[key] == pinned[key]))
        return checks


Workload = Union[EngineWorkload, AttackWorkload]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        EngineWorkload(
            name="chunk-uniform",
            scheme="security-rbsg",
            n_lines=1 << 16,
            interval=100,
            trace="uniform",
            n_writes=50_000,
        ),
        EngineWorkload(
            name="chunk-zipf-sr",
            scheme="two-level-sr",
            n_lines=1 << 12,
            interval=100,
            trace="zipf",
            n_writes=100_000,
        ),
        EngineWorkload(
            name="raa-lifetime",
            scheme="security-rbsg",
            n_lines=1 << 12,
            interval=16,
            trace="raa",
            # Above the slice's ~28k total writes: no seed can fail inside it.
            endurance=1e5,
            n_writes=25_000,
            fast_forward="analytic",
            # Fast-forward floor max(8 * batch, n_lines // 8) = 16384 writes,
            # under the slice, so an analytic RAA tier could still engage.
            batch=2048,
        ),
        EngineWorkload(
            name="ff-dropback",
            scheme="security-rbsg",
            n_lines=1 << 8,
            interval=100,
            trace="uniform",
            endurance=2e4,
            fast_forward="analytic",
        ),
        EngineWorkload(
            name="ff-rounds",
            scheme="security-rbsg",
            n_lines=1 << 8,
            interval=100,
            trace="uniform",
            endurance=5e6,
            fast_forward="analytic",
            # A low floor keeps the random-length drop-back to ~15% of the run.
            batch=1024,
        ),
        AttackWorkload(name="rta-attack"),
    )
}

#: Sizes for ``--smoke``: every layer still runs, each in well under a second.
SMOKE: Dict[str, dict] = {
    "chunk-uniform": {"n_writes": 20_000},
    "chunk-zipf-sr": {"n_writes": 20_000},
    "raa-lifetime": {"n_writes": 5_000},
    "ff-dropback": {"batch": 1024},
    "ff-rounds": {"endurance": 1e6},
    "rta-attack": {"endurance": 1.5e4},
}


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload, shrunk to its ``--smoke`` size if asked."""
    base = WORKLOADS[name]
    return dataclasses.replace(base, **SMOKE[name]) if smoke else base
