"""Tests for detector-driven remapping-rate escalation."""

import numpy as np
import pytest

from repro.attacks.raa import RepeatedAddressAttack
from repro.config import PCMConfig
from repro.defense.adaptive import AdaptiveWearLeveler
from repro.defense.attack_detector import OnlineAttackDetector
from repro.pcm.timing import ALL1
from repro.sim.memory_system import MemoryController
from repro.wearlevel.base import CopyMove
from repro.wearlevel.multiway_sr import MultiWaySR
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.security_refresh import SecurityRefresh
from repro.wearlevel.startgap import StartGap
from repro.wearlevel.two_level_sr import TwoLevelSecurityRefresh
from repro.core.security_rbsg import SecurityRBSG


class _ScriptedDetector:
    """Detector stand-in whose alarm the test raises and lowers."""

    alarm = False

    def record(self, la: int) -> bool:
        return self.alarm


class TestIntervalDiscovery:
    def test_finds_knobs_on_every_scheme(self):
        """Escalation shrinks every region's remap period 4x, then restores it.

        Observed as movement line writes (copy 1, swap 2) over equal phases
        of a fixed sweep, after a warm-up past SR's movement-free boot
        round: a level or region whose interval the wrapper missed keeps
        its calm rate and pulls the escalated ratio well below 4.
        """
        schemes = [
            StartGap(256, 8),
            RegionBasedStartGap(256, 4, 8, rng=0),
            SecurityRefresh(256, 8, rng=0),
            TwoLevelSecurityRefresh(256, 4, 8, 8, rng=0),
            SecurityRBSG(256, 4, 8, 8, 3, rng=0),
            MultiWaySR(256, 4, 8, rng=0),
        ]
        for scheme in schemes:
            detector = _ScriptedDetector()
            adaptive = AdaptiveWearLeveler(scheme, detector, escalation=4)

            def movement_writes() -> int:
                total = 0
                for i in range(4096):
                    for move in adaptive.record_write(i % 256):
                        total += 1 if isinstance(move, CopyMove) else 2
                return total

            movement_writes()  # warm-up
            calm = movement_writes()
            detector.alarm = True
            escalated = movement_writes()
            detector.alarm = False
            restored = movement_writes()
            name = type(scheme).__name__
            assert 3.6 <= escalated / calm <= 4.4, (name, calm, escalated)
            assert 0.9 <= restored / calm <= 1.1, (name, calm, restored)

    def test_rejects_identity_scheme(self):
        with pytest.raises(ValueError):
            AdaptiveWearLeveler(NoWearLeveling(64))

    def test_escalation_validated(self):
        with pytest.raises(ValueError):
            AdaptiveWearLeveler(StartGap(64, 8), escalation=0)


class TestEscalation:
    def test_escalates_under_raa_and_restores(self):
        scheme = StartGap(256, remap_interval=16)
        detector = OnlineAttackDetector(window=128)
        adaptive = AdaptiveWearLeveler(scheme, detector, escalation=4)
        for _ in range(300):
            adaptive.record_write(3)
        assert adaptive.escalated
        assert scheme.regions.remap_interval == 4
        rng = np.random.default_rng(0)
        for _ in range(400):
            adaptive.record_write(int(rng.integers(0, 256)))
        assert not adaptive.escalated
        assert scheme.regions.remap_interval == 16

    def test_remaps_more_frequent_when_escalated(self):
        def moves_under(adaptive_on):
            scheme = StartGap(256, remap_interval=16)
            if adaptive_on:
                scheme_like = AdaptiveWearLeveler(
                    scheme, OnlineAttackDetector(window=64), escalation=8
                )
            else:
                scheme_like = scheme
            moves = 0
            for _ in range(2000):
                moves += len(scheme_like.record_write(3))
            return moves

        assert moves_under(True) > 3 * moves_under(False)

    def test_translation_delegates(self):
        scheme = StartGap(64, 8)
        adaptive = AdaptiveWearLeveler(scheme, OnlineAttackDetector(64))
        assert adaptive.translate(5) == scheme.translate(5)

    def test_extends_raa_lifetime_on_sr(self):
        """Escalation is a real defense against RAA on Security Refresh:
        shorter dwells shrink the per-slot deposit, pushing the
        balls-into-bins max-load toward uniform.  (On the Start-Gap family
        RAA lifetime is interval-independent — escalating there only helps
        against BPA-style attacks.)"""
        def lifetime(adaptive_on):
            config = PCMConfig(n_lines=256, endurance=2e4)
            scheme = SecurityRefresh(256, remap_interval=16, rng=1)
            wrapped = (
                AdaptiveWearLeveler(
                    scheme, OnlineAttackDetector(window=128), escalation=8
                )
                if adaptive_on
                else scheme
            )
            controller = MemoryController(wrapped, config)
            return RepeatedAddressAttack(controller, target_la=5).run(
                max_writes=50_000_000
            ).user_writes

        assert lifetime(True) > 1.5 * lifetime(False)

    def test_data_consistency_preserved(self):
        config = PCMConfig(n_lines=128, endurance=1e12)
        scheme = TwoLevelSecurityRefresh(128, 4, 4, 8, rng=2)
        adaptive = AdaptiveWearLeveler(
            scheme, OnlineAttackDetector(window=64), escalation=4
        )
        controller = MemoryController(adaptive, config)
        rng = np.random.default_rng(2)
        shadow = {}
        from repro.pcm.timing import ALL0

        for i in range(3000):
            # Alternate hammering (to trigger escalation) and random IO.
            la = 3 if i % 3 else int(rng.integers(0, 128))
            data = ALL1 if rng.random() < 0.5 else ALL0
            controller.write(la, data)
            shadow[la] = data
        for la, data in shadow.items():
            got, _ = controller.read(la)
            assert got == data
