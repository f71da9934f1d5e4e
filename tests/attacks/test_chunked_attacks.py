"""Chunked attacks against a per-write reference.

The RTA on RBSG, RAA and BPA write in chunks through
``MemoryController.write_chunk`` (the RTA through
``LatencyOracle.write_many``, reading every write's latency).
``ScalarController`` replays each chunk through ``write``, one write at a
time, so a run on it is what the attack sees write by write.  Twin runs on
the two controllers must agree on everything: the attack's result and
recovered chain, time, wear, stored data and the scheme's whole state.

The chunk sizes themselves are checked against the counts the RTA made
when it wrote one address at a time (``PER_WRITE_COUNTS``), since a chunk
planned one write too long or too short would be replayed identically by
both controllers.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.oracle import LatencyOracle
from repro.attacks.raa import RepeatedAddressAttack
from repro.attacks.rta_rbsg import RBSGTimingAttack, _RegionMirror
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.array import LineFailure
from repro.pcm.timing import ALL0, ALL1, MIXED, LineData
from repro.sim.memory_system import MemoryController
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.startgap import StartGap, StartGapBank


class ScalarController(MemoryController):
    """``write_chunk`` as one :meth:`write` per element: the reference."""

    def write_chunk(self, las, datas, out=None):
        latency = 0.0
        pairs = zip(np.asarray(las).tolist(), np.asarray(datas).tolist())
        for i, (la, data) in enumerate(pairs):
            try:
                ns = self.write(la, LineData(data))
            except LineFailure as failure:
                failure.chunk_index = i
                raise
            if out is not None:
                out[i] = ns
            latency += ns
        return latency, len(las)


def device_state(controller):
    """Everything a run leaves behind on the controller."""
    array = controller.array
    return (
        controller.elapsed_ns,
        controller.total_writes,
        array.wear.tolist(),
        array.data.tolist(),
        pickle.dumps(controller.scheme),
    )


def twin_runs(make_scheme, endurance, run):
    """``run(controller)`` on a scalar and a chunk controller over twin
    schemes; asserts the two outcomes equal and returns the chunk one."""
    outcomes = []
    for cls in (ScalarController, MemoryController):
        scheme = make_scheme()
        config = PCMConfig(n_lines=scheme.n_lines, endurance=endurance)
        controller = cls(scheme, config)
        outcomes.append((run(controller), device_state(controller)))
    assert outcomes[0] == outcomes[1]
    return outcomes[1][0]


# ------------------------------------------------------------ RTA on RBSG

TARGET = 5

#: ``(oracle.user_writes, detection_writes)`` of the RTA writing one
#: address at a time, at 2^9 lines, 8 regions, interval 8, target 5.  At
#: E = 60 the device fails in synchronization, at E = 450 in detection and
#: at E = 2e4 in wear-out; ``max_writes`` 777 cuts a wear-out chunk.
PER_WRITE_COUNTS = {
    ("feistel", 0, 60, None): (570, 0),
    ("feistel", 0, 450, None): (1853, 896),
    ("feistel", 0, 2e4, None): (29780, 9856),
    ("feistel", 0, 2e4, 777): (10633, 9856),
    ("feistel", 7, 60, None): (570, 0),
    ("feistel", 7, 450, None): (1877, 920),
    ("feistel", 7, 2e4, None): (29804, 9880),
    ("feistel", 7, 2e4, 777): (10657, 9880),
    ("feistel", 42, 60, None): (570, 0),
    ("feistel", 42, 450, None): (1813, 856),
    ("feistel", 42, 2e4, None): (29740, 9816),
    ("feistel", 42, 2e4, 777): (10593, 9816),
    ("matrix", 0, 60, None): (570, 0),
    ("matrix", 0, 450, None): (1653, 696),
    ("matrix", 0, 2e4, None): (29580, 9656),
    ("matrix", 0, 2e4, 777): (10433, 9656),
    ("matrix", 7, 60, None): (570, 0),
    ("matrix", 7, 450, None): (1581, 624),
    ("matrix", 7, 2e4, None): (29508, 9584),
    ("matrix", 7, 2e4, 777): (10361, 9584),
    ("matrix", 42, 60, None): (570, 0),
    ("matrix", 42, 450, None): (1565, 608),
    ("matrix", 42, 2e4, None): (29492, 9568),
    ("matrix", 42, 2e4, 777): (10345, 9568),
}
#: Where each endurance makes the device fail.
PHASE = {60: "synchronize", 450: "detect", 2e4: "wear-out"}


def run_rta(controller, max_writes):
    """Run the RTA; return its result or failure, the phase it ended in,
    its recovered chain and its counters."""
    attack = RBSGTimingAttack(controller, target_la=TARGET)
    chains = []
    detect = attack.detect_sequence

    def recording_detect(n):
        chains.append(detect(n))
        return chains[-1]

    attack.detect_sequence = recording_detect
    try:
        outcome = attack.run() if max_writes is None else attack.run(max_writes)
        phase = "wear-out"
    except LineFailure as failure:
        outcome = (failure.pa, failure.wear, failure.total_writes, failure.elapsed_ns)
        phase = "synchronize" if attack.target_local_ia is None else "detect"
    counts = (attack.oracle.user_writes, attack.detection_writes)
    return outcome, phase, chains, counts, attack.target_local_ia


@pytest.mark.parametrize("randomizer", ["feistel", "matrix"])
@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize(
    "endurance, max_writes",
    [(60, None), (450, None), (2e4, None), (2e4, 777)],
    ids=["fails-in-sync", "fails-in-detection", "fails-in-wear-out", "cut-in-wear-out"],
)
def test_rta_rbsg_chunked_equals_scalar(randomizer, seed, endurance, max_writes):
    def make_scheme():
        return RegionBasedStartGap(
            1 << 9, n_regions=8, remap_interval=8, randomizer=randomizer, rng=seed
        )

    outcome, phase, chains, counts, _ = twin_runs(
        make_scheme, endurance, lambda controller: run_rta(controller, max_writes)
    )
    assert phase == PHASE[endurance]
    assert counts == PER_WRITE_COUNTS[(randomizer, seed, endurance, max_writes)]
    if phase == "wear-out":
        assert outcome.user_writes == counts[0]
        assert outcome.failed == (max_writes is None)
        (chain,) = chains
        scheme, truth, la = make_scheme(), [], TARGET
        for _ in chain:
            la = scheme.physically_previous_la(la)
            truth.append(la)
        assert chain == truth


def test_detection_chunks_one_per_bit():
    """After synchronization, each address bit is one sweep and one
    hammering chunk."""
    scheme = RegionBasedStartGap(1 << 9, n_regions=8, remap_interval=8, rng=7)
    controller = MemoryController(scheme, PCMConfig(n_lines=1 << 9, endurance=1e12))
    attack = RBSGTimingAttack(controller, target_la=TARGET)
    attack.synchronize()
    synchronized = attack.detection_writes
    sizes = []
    write_chunk = controller.write_chunk

    def recording_write_chunk(las, datas, out=None):
        sizes.append(len(las))
        return write_chunk(las, datas, out)

    controller.write_chunk = recording_write_chunk
    attack.detect_sequence(6)
    assert len(sizes) == 2 * attack.n_bits
    assert sizes[::2] == [1 << 9] * attack.n_bits
    assert sum(sizes) == attack.detection_writes - synchronized


# ----------------------------------------------------------- RAA and BPA

WEAR_SCHEMES = ["rbsg", "two-level-sr", "security-rbsg"]


def run_wear_attack(attack, max_writes):
    result = attack.run(max_writes=max_writes)
    rng = getattr(attack, "_rng", None)
    return result, None if rng is None else rng.bit_generator.state


@pytest.mark.parametrize("kind", ["raa", "bpa"])
@pytest.mark.parametrize("name", WEAR_SCHEMES)
@pytest.mark.parametrize(
    "endurance, max_writes",
    [(300, 10**8), (1e12, 3001)],
    ids=["to-failure", "budget-cut"],
)
def test_wear_attack_chunked_equals_scalar(kind, name, endurance, max_writes):
    def attack(controller):
        if kind == "raa":
            return RepeatedAddressAttack(controller, target_la=TARGET)
        return BirthdayParadoxAttack(controller, dwell_writes=50, rng=3)

    result, _ = twin_runs(
        lambda: build_scheme(name, 128, 2, {"interval": 4}),
        endurance,
        lambda controller: run_wear_attack(attack(controller), max_writes),
    )
    assert result.failed == (endurance == 300)
    if not result.failed:
        assert result.user_writes == max_writes


# ------------------------------------------------------------- the oracle


def test_write_many_reads_what_write_reads():
    """Each write's extra latency equals what a scalar oracle write sees,
    remap copies of every data class included."""
    rng = np.random.default_rng(5)
    las = rng.integers(0, 16, size=200)
    datas = rng.choice([int(ALL0), int(ALL1), int(MIXED)], size=200).astype(np.int8)
    oracles = [
        LatencyOracle(
            MemoryController(StartGap(16, remap_interval=3), PCMConfig(16, endurance=1e12))
        )
        for _ in range(2)
    ]
    scalar = [oracles[0].write(int(la), LineData(int(d))) for la, d in zip(las, datas)]
    extra = oracles[1].write_many(las, datas)
    assert extra.tolist() == scalar
    assert len(set(scalar)) > 2  # copies of more than one class were seen
    assert oracles[0].user_writes == oracles[1].user_writes == 200


def test_write_many_counts_writes_before_failure():
    """A failing write stays uncounted, as with a scalar oracle write."""
    oracle = LatencyOracle(
        MemoryController(NoWearLeveling(16), PCMConfig(16, endurance=5))
    )
    _ = oracle.write_many(np.array([1, 2]), np.array([int(ALL1)] * 2))
    with pytest.raises(LineFailure) as info:
        _ = oracle.write_many(np.full(8, 3), np.full(8, int(ALL1)))
    assert info.value.chunk_index == 4
    assert oracle.user_writes == 2 + 4


# -------------------------------------------------------- mirror helpers


def test_mirror_steps_like_the_bank():
    """``count_writes(k)`` reports each gap movement a real Start-Gap
    region makes over ``k`` writes, with the write that triggered it, and
    ``writes_until_source`` counts the writes to a given source slot."""
    rng = np.random.default_rng(11)
    size, psi = 16, 3
    bank = StartGapBank(1, size, psi)
    mirror = _RegionMirror(size, psi)
    for _ in range(150):
        for slot in range(size + 1):
            probe, writes = copy.deepcopy(bank), 1
            while (move := probe.record_write(0)) is None or move.src != slot:
                writes += 1
            assert mirror.writes_until_source(slot) == writes
        probe, writes = copy.deepcopy(bank), 1
        while probe.record_write(0) is None:
            writes += 1
        assert mirror.writes_to_movement() == writes
        k = int(rng.integers(0, 3 * psi * 2))
        expected = []
        for i in range(k):
            registers = (bank.start.item(0), bank.gap.item(0))
            move = bank.record_write(0)
            if move is not None:
                expected.append((i, move.src, move.dst) + registers)
        got = mirror.count_writes(k)
        assert [(m.at, m.src, m.dst, m.pre_start, m.pre_gap) for m in got] == expected
        assert (mirror.start, mirror.gap) == (bank.start.item(0), bank.gap.item(0))
