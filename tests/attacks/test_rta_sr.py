"""Tests for the Remapping Timing Attack against one-level SR (§III-D)."""

import pytest

from repro.attacks.raa import RepeatedAddressAttack
from repro.attacks.rta_sr import SRTimingAttack, _SRMirror
from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.multiway_sr import MultiWaySR
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh


def make_attack(n_lines=2**8, interval=64, target=3, seed=11):
    config = PCMConfig(n_lines=n_lines, endurance=1e12)
    scheme = SecurityRefresh(n_lines, remap_interval=interval, rng=seed)
    controller = MemoryController(scheme, config)
    return SRTimingAttack(controller, target_la=target), scheme


class TestSRMirror:
    def test_tracks_real_crp(self):
        from repro.wearlevel.security_refresh import SRBank

        real = SRBank(1, 32, 4, rng=0)
        mirror = _SRMirror(32, 4)
        for _ in range(500):
            real.record_write(0)
            mirror.count_write()
            assert mirror.crp == real.crp[0]
        assert mirror.rounds == real.round_count[0]

    def test_round_started_flag(self):
        mirror = _SRMirror(4, 1)
        flags = [mirror.count_write().round_started for _ in range(8)]
        assert flags == [False, False, False, True] * 2


class TestSynchronize:
    @pytest.mark.parametrize("seed", [11, 2, 5])
    def test_sync_lands_on_round_boundary(self, seed):
        attack, _ = make_attack(seed=seed)
        attack.synchronize()
        assert attack.synchronized

    def test_requires_sr_scheme(self):
        config = PCMConfig(n_lines=16, endurance=1e12)
        controller = MemoryController(NoWearLeveling(16), config)
        with pytest.raises(TypeError):
            SRTimingAttack(controller)

    def test_refuses_multiway_sr(self):
        """Multi-Way SR is a Security Refresh of several sub-regions: the
        one-region attack cannot follow its CRPs."""
        config = PCMConfig(n_lines=64, endurance=1e12)
        scheme = MultiWaySR(64, n_subregions=4, remap_interval=4, rng=0)
        with pytest.raises(TypeError):
            SRTimingAttack(MemoryController(scheme, config))

    def test_la0_reserved(self):
        attack, _ = make_attack()
        with pytest.raises(ValueError):
            SRTimingAttack(attack.controller, target_la=0)


class TestDetectKeyXor:
    @pytest.mark.parametrize("seed", [11, 23, 31])
    def test_recovers_ground_truth(self, seed):
        attack, scheme = make_attack(seed=seed)
        attack.synchronize()
        assert attack.detect_key_xor() == scheme.key_xor

    def test_redetects_next_round(self):
        """Keys rotate each round; the attack re-recovers them."""
        attack, scheme = make_attack(seed=11)
        attack.synchronize()
        first = attack.detect_key_xor()
        assert first == scheme.key_xor
        # Push to the next round boundary, then detect again.
        from repro.pcm.timing import ALL0

        while True:
            attack.oracle.write(1, ALL0)
            step = attack.mirror.count_write()
            if step is not None and step.round_started:
                break
        second = attack.detect_key_xor()
        assert second == scheme.key_xor


class TestWearOut:
    def test_fails_device_and_concentrates(self):
        config = PCMConfig(n_lines=2**8, endurance=2e4)
        scheme = SecurityRefresh(2**8, remap_interval=64, rng=11)
        controller = MemoryController(scheme, config)
        result = SRTimingAttack(controller, target_la=3).run(
            max_writes=30_000_000
        )
        assert result.failed
        wear = controller.array.wear
        assert wear.max() == 2e4

    def test_faster_than_raa(self):
        endurance = 2e4

        def fresh():
            config = PCMConfig(n_lines=2**8, endurance=endurance)
            scheme = SecurityRefresh(2**8, remap_interval=64, rng=11)
            return MemoryController(scheme, config)

        rta = SRTimingAttack(fresh(), target_la=3).run(max_writes=30_000_000)
        raa = RepeatedAddressAttack(fresh(), target_la=3).run(
            max_writes=30_000_000
        )
        assert rta.failed and raa.failed
        assert raa.lifetime_seconds > 2 * rta.lifetime_seconds
