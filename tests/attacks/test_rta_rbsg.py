"""Tests for the Remapping Timing Attack against RBSG (§III-B).

The attack runs against a real controller and observes only write
latencies; every recovered quantity is checked against the scheme's ground
truth oracles.
"""

import numpy as np
import pytest

from repro.attacks.raa import RepeatedAddressAttack
from repro.attacks.rta_rbsg import RBSGTimingAttack, _RegionMirror
from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.startgap import StartGap


def make_attack(n_lines=2**9, regions=8, interval=8, target=5, seed=7):
    config = PCMConfig(n_lines=n_lines, endurance=1e12)
    scheme = RegionBasedStartGap(
        n_lines, n_regions=regions, remap_interval=interval, rng=seed
    )
    controller = MemoryController(scheme, config)
    return RBSGTimingAttack(controller, target_la=target), scheme


class TestRegionMirror:
    def test_mirror_tracks_real_region(self):
        """The attacker's mirror replays the exact register evolution."""
        from repro.wearlevel.startgap import StartGapBank

        real = StartGapBank(1, 16, 3)
        mirror = _RegionMirror(16, 3)
        for _ in range(200):
            real.record_write(0)
            mirror.count_write()
            assert mirror.gap == real.gap[0]
            assert mirror.start == real.start[0]

    def test_slot_inversion(self):
        mirror = _RegionMirror(16, 1)
        for _ in range(23):
            mirror.count_write()
        for ia in range(16):
            slot = mirror.local_ia_to_slot(ia)
            assert mirror.slot_to_local_ia(slot, mirror.start, mirror.gap) == ia

    def test_gap_slot_not_invertible(self):
        mirror = _RegionMirror(16, 1)
        with pytest.raises(ValueError):
            mirror.slot_to_local_ia(mirror.gap, mirror.start, mirror.gap)


class TestSynchronize:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_recovers_target_slot(self, seed):
        attack, scheme = make_attack(seed=seed)
        local_ia = attack.synchronize()
        assert local_ia == scheme.randomize(5) % scheme.region_size

    def test_requires_rbsg(self):
        config = PCMConfig(n_lines=16, endurance=1e12)
        controller = MemoryController(NoWearLeveling(16), config)
        with pytest.raises(TypeError):
            RBSGTimingAttack(controller)

    def test_refuses_start_gap(self):
        """Start-Gap is RBSG's base class, not an RBSG."""
        config = PCMConfig(n_lines=64, endurance=1e12)
        with pytest.raises(TypeError):
            RBSGTimingAttack(MemoryController(StartGap(64, remap_interval=4), config))


class TestDetectSequence:
    @pytest.mark.parametrize("seed,target", [(7, 5), (13, 100), (3, 0)])
    def test_recovers_ground_truth_chain(self, seed, target):
        attack, scheme = make_attack(seed=seed, target=target)
        recovered = attack.detect_sequence(6)
        truth = []
        la = target
        for _ in range(6):
            la = scheme.physically_previous_la(la)
            truth.append(la)
        assert recovered == truth

    def test_matrix_randomizer_also_broken(self):
        """RTA does not depend on which static randomizer RBSG uses."""
        config = PCMConfig(n_lines=2**8, endurance=1e12)
        scheme = RegionBasedStartGap(
            2**8, n_regions=4, remap_interval=8, randomizer="matrix", rng=1
        )
        controller = MemoryController(scheme, config)
        attack = RBSGTimingAttack(controller, target_la=9)
        recovered = attack.detect_sequence(3)
        truth = []
        la = 9
        for _ in range(3):
            la = scheme.physically_previous_la(la)
            truth.append(la)
        assert recovered == truth

    def test_n_bounds(self):
        attack, _ = make_attack()
        with pytest.raises(ValueError):
            attack.detect_sequence(0)
        with pytest.raises(ValueError):
            attack.detect_sequence(10**6)
        assert attack.controller.total_writes == 0  # checked before any write


class TestWearOut:
    def test_full_attack_fails_device(self):
        config = PCMConfig(n_lines=2**9, endurance=2e4)
        scheme = RegionBasedStartGap(2**9, n_regions=8, remap_interval=8, rng=7)
        controller = MemoryController(scheme, config)
        result = RBSGTimingAttack(controller, target_la=5).run(
            max_writes=20_000_000
        )
        assert result.failed
        assert result.detection_writes > 0

    def test_wear_concentrates_on_one_slot(self):
        config = PCMConfig(n_lines=2**9, endurance=2e4)
        scheme = RegionBasedStartGap(2**9, n_regions=8, remap_interval=8, rng=7)
        controller = MemoryController(scheme, config)
        result = RBSGTimingAttack(controller, target_la=5).run(
            max_writes=20_000_000
        )
        wear = controller.array.wear
        # The failed line absorbed the endurance; the runner-up (its
        # neighbour, hit during gap windows) is far behind.
        order = np.argsort(wear)
        assert wear[order[-1]] == 2e4
        assert wear[order[-2]] < 0.4 * 2e4

    def test_much_faster_than_raa(self):
        """The headline claim at small scale: RTA >> RAA efficiency."""
        endurance = 2e4

        def fresh_controller():
            config = PCMConfig(n_lines=2**9, endurance=endurance)
            scheme = RegionBasedStartGap(
                2**9, n_regions=8, remap_interval=8, rng=7
            )
            return MemoryController(scheme, config)

        rta = RBSGTimingAttack(fresh_controller(), target_la=5).run(
            max_writes=20_000_000
        )
        raa = RepeatedAddressAttack(fresh_controller(), target_la=5).run(
            max_writes=20_000_000
        )
        assert rta.failed and raa.failed
        assert raa.lifetime_seconds > 10 * rta.lifetime_seconds
