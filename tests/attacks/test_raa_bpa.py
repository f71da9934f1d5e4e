"""Tests for Repeated Address Attack and Birthday Paradox Attack."""

import pytest

from repro.attacks.bpa import BirthdayParadoxAttack
from repro.attacks.raa import RepeatedAddressAttack
from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.defense.adaptive import AdaptiveWearLeveler
from repro.sim.memory_system import MemoryController
from repro.wearlevel.multiway_sr import MultiWaySR
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.random_swap import RandomSwapWearLeveling
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.security_refresh import SecurityRefresh
from repro.wearlevel.startgap import StartGap
from repro.wearlevel.table_based import TableBasedWearLeveling
from repro.wearlevel.two_level_sr import TwoLevelSecurityRefresh


def controller_for(scheme, endurance):
    config = PCMConfig(n_lines=scheme.n_lines, endurance=endurance)
    return MemoryController(scheme, config)


class TestRAA:
    def test_kills_unprotected_in_exactly_endurance(self):
        controller = controller_for(NoWearLeveling(16), endurance=500)
        result = RepeatedAddressAttack(controller, target_la=3).run()
        assert result.failed
        assert result.failed_pa == 3
        assert result.user_writes == 500
        assert result.lifetime_seconds == pytest.approx(500 * 1000e-9)

    def test_startgap_survives_much_longer(self):
        endurance = 500
        plain = RepeatedAddressAttack(
            controller_for(NoWearLeveling(16), endurance)
        ).run()
        leveled = RepeatedAddressAttack(
            controller_for(StartGap(16, remap_interval=4), endurance),
            target_la=0,
        ).run(max_writes=10_000_000)
        assert leveled.failed
        assert leveled.user_writes > 5 * plain.user_writes

    def test_budget_respected(self):
        controller = controller_for(NoWearLeveling(16), endurance=1e12)
        result = RepeatedAddressAttack(controller).run(max_writes=100)
        assert not result.failed
        assert result.user_writes == 100

    def test_raa_rbsg_matches_analytic_model(self):
        """Exact simulation vs the refined Fig. 11 RAA accounting.

        The hammered LA revisits each of the ``m = N/R`` rotation positions
        every ``m`` rounds, absorbing a dwell of ``D = (m+1)*psi`` user
        writes plus ``m`` remap-copy wears per period, so failure takes
        ``E/(D+m) * m * D`` attacker writes.  At paper scale this is
        indistinguishable from the paper's ``E*(N/R+1)``.
        """
        n_lines, endurance, psi = 2**8, 10_000, 10
        scheme = RegionBasedStartGap(
            n_lines, n_regions=8, remap_interval=psi, rng=0
        )
        controller = controller_for(scheme, endurance)
        result = RepeatedAddressAttack(controller, target_la=5).run(
            max_writes=10_000_000
        )
        assert result.failed
        m = n_lines // 8
        dwell = (m + 1) * psi
        predicted = endurance / (dwell + m) * m * dwell
        assert result.user_writes == pytest.approx(predicted, rel=0.1)


class TestBPA:
    def test_fails_startgap(self):
        controller = controller_for(StartGap(64, remap_interval=4), 2000)
        result = BirthdayParadoxAttack(controller, rng=1).run(
            max_writes=20_000_000
        )
        assert result.failed

    def test_default_dwell_derived_from_scheme(self):
        # One rotation of the inner region bank: region size x interval.
        cases = [
            (RegionBasedStartGap(64, n_regions=4, remap_interval=8, rng=0), 16 * 8),
            (SecurityRBSG(64, n_subregions=4, inner_interval=8, rng=0), 16 * 8),
            (StartGap(64, remap_interval=4), 64 * 4),
            (SecurityRefresh(64, remap_interval=4, rng=0), 64 * 4),
            (MultiWaySR(64, n_subregions=4, remap_interval=4, rng=0), 16 * 4),
            (
                TwoLevelSecurityRefresh(
                    64, n_subregions=4, inner_interval=4, outer_interval=8, rng=0
                ),
                16 * 4,
            ),
            (NoWearLeveling(64), 64),
            (TableBasedWearLeveling(64, swap_interval=4), 64),
            (RandomSwapWearLeveling(64, swap_interval=4, rng=0), 64),
            (AdaptiveWearLeveler(StartGap(64, remap_interval=4)), 64),
        ]
        wrong = []
        for scheme, dwell in cases:
            attack = BirthdayParadoxAttack(controller_for(scheme, 1e12), rng=0)
            if attack.dwell_writes != dwell:
                wrong.append((type(scheme).__name__, attack.dwell_writes, dwell))
        assert wrong == []

    def test_dwell_validation(self):
        controller = controller_for(NoWearLeveling(16), 1e12)
        with pytest.raises(ValueError):
            BirthdayParadoxAttack(controller, dwell_writes=0)

    def test_reproducible(self):
        results = []
        for _ in range(2):
            controller = controller_for(StartGap(64, remap_interval=4), 2000)
            results.append(
                BirthdayParadoxAttack(controller, rng=7).run(
                    max_writes=20_000_000
                ).user_writes
            )
        assert results[0] == results[1]
