"""Tests for the Security RBSG scheme (the paper's contribution)."""

import copy

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.pcm.timing import ALL0, ALL1, TimingModel
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.wearlevel.base import CopyMove, SwapMove

from tests.conftest import drive_and_shadow


def make(n_lines=64, n_subregions=4, inner=3, outer=5, stages=4, seed=0):
    return SecurityRBSG(
        n_lines,
        n_subregions=n_subregions,
        inner_interval=inner,
        outer_interval=outer,
        n_stages=stages,
        rng=seed,
    )


class TestConstruction:
    def test_physical_layout(self):
        scheme = make()
        # 4 regions of (16+1) lines + 1 outer spare.
        assert scheme.n_physical == 64 + 4 + 1

    def test_subregions_must_divide(self):
        with pytest.raises(ValueError):
            SecurityRBSG(64, n_subregions=5)

    @pytest.mark.parametrize("inner,outer", [(4, 0), (4, -4), (0, 4)])
    def test_intervals_must_be_positive(self, inner, outer):
        with pytest.raises(ValueError):
            SecurityRBSG(64, 4, inner, outer, 3)

    def test_translation_is_bijection(self):
        scheme = make(seed=3)
        table = scheme.mapping_snapshot()
        assert len(set(table)) == 64
        assert all(0 <= pa < scheme.n_physical for pa in table)

    def test_gap_slots_not_mapped(self):
        """Each region's gap slot and the outer spare are unoccupied."""
        scheme = make(seed=4)
        table = set(scheme.mapping_snapshot())
        assert len(table) == 64
        assert scheme.n_physical - len(table) == 5  # 4 gaps + outer spare


class TestRemapTriggers:
    def test_outer_movement_every_outer_interval(self):
        scheme = make(inner=10**9, outer=5, seed=1)
        moves = []
        for i in range(1, 26):
            triggered = scheme.record_write(i % 64)
            if triggered:
                moves.append(i)
            assert all(isinstance(m, CopyMove) for m in triggered)
        assert moves == [5, 10, 15, 20, 25]

    def test_inner_movement_counts_subregion_writes(self):
        scheme = make(inner=4, outer=10**9, seed=2)
        # Hammer one LA: all writes land in one sub-region.
        la = 7
        triggered_at = []
        for i in range(1, 13):
            if scheme.record_write(la):
                triggered_at.append(i)
        assert triggered_at == [4, 8, 12]

    def test_moves_reference_valid_lines(self):
        scheme = make(seed=5)
        for i in range(500):
            for move in scheme.record_write(i % 64):
                if isinstance(move, CopyMove):
                    ends = (move.src, move.dst)
                else:
                    ends = (move.pa_a, move.pa_b)
                assert all(0 <= pa < scheme.n_physical for pa in ends)
                assert ends[0] != ends[1]


class TestDataConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_random_traffic(self, seed):
        config = PCMConfig(n_lines=2**7, endurance=1e12)
        scheme = SecurityRBSG(
            config.n_lines, n_subregions=4, inner_interval=3,
            outer_interval=5, n_stages=4, rng=seed,
        )
        controller = MemoryController(scheme, config)
        drive_and_shadow(controller, 4000, np.random.default_rng(seed))

    def test_single_address_hammering(self):
        """RAA traffic must also never corrupt the hammered line."""
        config = PCMConfig(n_lines=2**6, endurance=1e12)
        scheme = make(seed=7)
        controller = MemoryController(scheme, config)
        controller.write(3, ALL1)
        for _ in range(2000):
            controller.write(3, ALL1)
            got, _ = controller.read(3)
            assert got == ALL1


class TestWearLeveling:
    def test_hammered_address_moves_across_subregions(self):
        """The outer DFN must relocate a hammered line across sub-regions
        over rounds — the property that defeats region-local wear-out."""
        scheme = make(n_lines=64, n_subregions=4, inner=2, outer=2, seed=8)
        regions = set()
        for _ in range(3000):
            scheme.record_write(5)
            regions.add(scheme.subregion_of_la(5))
        assert len(regions - {-1}) >= 3

    def test_raa_wear_spreads(self):
        config = PCMConfig(n_lines=2**6, endurance=1e12)
        scheme = make(n_lines=64, inner=2, outer=2, seed=9)
        controller = MemoryController(scheme, config)
        for _ in range(20000):
            controller.write(0, ALL1)
        wear = controller.array.wear
        # User + remap writes spread: the most-worn line takes far less
        # than the whole stream.
        assert wear.max() < 0.15 * controller.array.total_writes
        assert (wear > 0).sum() > 32


class TestAnalyticRound:
    @pytest.mark.parametrize("rounds", [1, 50])
    def test_boot_commit_models_outer_movement(self, rounds):
        """At boot ``Kc is Kp`` fixes every line, but the rounds a commit
        models draw fresh pairs: the profile must charge their outer
        movement writes, within 5% of stepping a twin DFN."""
        n = 256
        scheme = make(n_lines=n, n_subregions=8, inner=100, outer=200,
                      stages=7, seed=7)
        twin = copy.deepcopy(scheme.outer)
        writes = rounds * n * scheme.outer_interval
        spec = TraceSpec(kind="uniform", n_lines=n, seed=7)
        profile = scheme.round_wear_profile(
            spec, writes, TimingModel(PCMConfig(n_lines=n))
        )
        # Beyond the user writes (uniform rates) and the inner gap walks
        # (counts inside the sub-regions): the outer swaps and copies
        # (rates) and the park writes to the spare, the last line.
        modelled = (profile.wear_rates.sum() - writes
                    + profile.wear_counts[scheme.n_physical - 1])
        exact = 0
        for _ in range(rounds * n):
            move = twin.step()
            exact += 2 if isinstance(move, SwapMove) else int(move is not None)
        assert modelled == pytest.approx(exact, rel=0.05)
