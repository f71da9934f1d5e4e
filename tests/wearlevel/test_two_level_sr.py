"""Tests for hierarchical (two-level) Security Refresh."""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.two_level_sr import TwoLevelSecurityRefresh

from tests.conftest import drive_and_shadow


def make(n_lines=64, subregions=4, inner=3, outer=5, seed=0):
    return TwoLevelSecurityRefresh(
        n_lines,
        n_subregions=subregions,
        inner_interval=inner,
        outer_interval=outer,
        rng=seed,
    )


class TestConstruction:
    def test_no_spares(self):
        assert make().n_physical == 64

    def test_subregion_size_power_of_two_required(self):
        # 48 / 4 = 12 is not a power of two.
        with pytest.raises(ValueError):
            TwoLevelSecurityRefresh(48, n_subregions=4)

    def test_must_divide(self):
        with pytest.raises(ValueError):
            TwoLevelSecurityRefresh(64, n_subregions=5)

    def test_bijection(self):
        scheme = make(seed=1)
        assert len(set(scheme.mapping_snapshot())) == 64


class TestLevelInteraction:
    def test_physical_stays_in_subregion_of_ia(self):
        """Inner SR never moves data across sub-region boundaries."""
        scheme = make(seed=2)
        for i in range(1000):
            scheme.record_write(i % 64)
            for la in range(0, 64, 7):
                ia = scheme.outer.translate(0, la)
                pa = scheme.translate(la)
                assert pa // 16 == ia // 16

    def test_outer_counter_counts_all_writes(self):
        scheme = make(outer=5, inner=10**9, seed=3)
        crp_before = scheme.outer.crp[0]
        for i in range(25):
            scheme.record_write(i % 64)
        assert scheme.outer.crp[0] - crp_before == 5

    def test_inner_counter_counts_subregion_writes(self):
        scheme = make(outer=10**9, inner=4, seed=4)
        la = 11
        region = scheme.subregion_of(scheme.outer.translate(0, la))
        for _ in range(8):
            scheme.record_write(la)
        assert scheme.inners.write_count[region] == 8
        others = [r for r in range(4) if r != region]
        assert all(scheme.inners.write_count[r] == 0 for r in others)

    def test_outer_swap_moves_between_subregions(self):
        """Over enough rounds, a hammered LA visits several sub-regions."""
        scheme = make(outer=1, inner=10**9, seed=5)
        regions = set()
        for _ in range(64 * 6):
            scheme.record_write(7)
            regions.add(scheme.subregion_of(scheme.outer.translate(0, 7)))
        assert len(regions) >= 2


class TestOracles:
    def test_outer_key_xor(self):
        scheme = make(outer=1, inner=10**9, seed=6)
        for _ in range(64):
            scheme.record_write(0)
        assert scheme.outer_key_xor == scheme.outer.keyc[0] ^ scheme.outer.keyp[0]

    def test_inner_key_xor(self):
        scheme = make(seed=7)
        for r in range(4):
            assert scheme.inner_key_xor(r) == (
                scheme.inners.keyc[r] ^ scheme.inners.keyp[r]
            )


class TestDataConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_traffic(self, seed):
        config = PCMConfig(n_lines=2**7, endurance=1e12)
        scheme = TwoLevelSecurityRefresh(
            config.n_lines, n_subregions=4, inner_interval=3,
            outer_interval=5, rng=seed,
        )
        controller = MemoryController(scheme, config)
        drive_and_shadow(controller, 4000, np.random.default_rng(seed + 10))
