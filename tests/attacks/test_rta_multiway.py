"""Tests for the RTA against Multi-Way SR (§III-E)."""

import pytest

from repro.attacks.raa import RepeatedAddressAttack
from repro.attacks.rta_multiway import MultiWaySRTimingAttack
from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.multiway_sr import MultiWaySR
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh


def make_controller(n_lines=2**8, subregions=4, interval=32, seed=9,
                    endurance=1e12):
    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = MultiWaySR(
        n_lines, n_subregions=subregions, remap_interval=interval, rng=seed
    )
    return MemoryController(scheme, config)


class TestConstruction:
    def test_requires_multiway(self):
        config = PCMConfig(n_lines=16, endurance=1e12)
        controller = MemoryController(NoWearLeveling(16), config)
        with pytest.raises(TypeError):
            MultiWaySRTimingAttack(controller)

    def test_refuses_security_refresh(self):
        """One-level SR is Multi-Way SR's base class, not a Multi-Way SR."""
        config = PCMConfig(n_lines=64, endurance=1e12)
        scheme = SecurityRefresh(64, remap_interval=4, rng=0)
        with pytest.raises(TypeError):
            MultiWaySRTimingAttack(MemoryController(scheme, config))

    def test_region_bounds(self):
        with pytest.raises(ValueError):
            MultiWaySRTimingAttack(make_controller(), target_region=4)

    def test_offset_zero_reserved(self):
        with pytest.raises(ValueError):
            MultiWaySRTimingAttack(make_controller(), target_offset=0)


class TestDetection:
    @pytest.mark.parametrize("seed,region", [(9, 0), (2, 2), (5, 3)])
    def test_recovers_region_key_xor(self, seed, region):
        controller = make_controller(seed=seed)
        attack = MultiWaySRTimingAttack(controller, target_region=region)
        attack.synchronize()
        recovered = attack.detect_key_xor()
        scheme = controller.scheme
        truth = scheme.regions.keyc[region] ^ scheme.regions.keyp[region]
        assert recovered == truth

    def test_detection_cost_scales_with_subregion(self):
        """Sweeps touch N/R lines, not N — the §III-E efficiency point.

        Cost is dominated by region-local quantities: labelling sweeps of
        ``N/R`` lines plus synchronization/observation hammering bounded
        by a couple of *region* rounds (``(N/R) * interval`` writes each),
        independent of total memory size.
        """
        controller = make_controller()
        attack = MultiWaySRTimingAttack(controller)
        attack.synchronize()
        attack.detect_key_xor()
        size, interval, bits = 64, 32, 6
        region_bound = 2 * size * interval + (bits + 1) * size + bits * 8 * interval
        assert attack.detection_writes < region_bound
        # ... which is far below even one full-memory labelling campaign
        # at the paper's sweep cost of N writes per address bit.
        n_bits_full = 8
        assert attack.detection_writes < 2**8 * n_bits_full * interval

    def test_writes_confined_to_target_region(self):
        controller = make_controller()
        attack = MultiWaySRTimingAttack(controller, target_region=1)
        attack.synchronize()
        attack.detect_key_xor()
        scheme = controller.scheme
        assert scheme.regions.write_count[0] == 0
        assert scheme.regions.write_count[1] > 0


class TestWearOut:
    def test_fails_device_faster_than_raa(self):
        endurance = 2e4

        def fresh():
            return make_controller(endurance=endurance)

        rta = MultiWaySRTimingAttack(fresh(), target_region=0).run(
            max_writes=30_000_000
        )
        raa = RepeatedAddressAttack(fresh(), target_la=3).run(
            max_writes=30_000_000
        )
        assert rta.failed and raa.failed
        assert rta.lifetime_seconds < raa.lifetime_seconds
        # The failed line sits in the target sub-region.
        assert 0 <= rta.failed_pa < 2**8 // 4
