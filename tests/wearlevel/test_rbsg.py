"""Tests for Region-Based Start-Gap."""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.rbsg import RegionBasedStartGap

from tests.conftest import drive_and_shadow


class TestConstruction:
    def test_physical_layout(self):
        scheme = RegionBasedStartGap(64, n_regions=4, rng=0)
        assert scheme.region_size == 16
        assert scheme.n_physical == 64 + 4

    def test_regions_must_divide(self):
        with pytest.raises(ValueError):
            RegionBasedStartGap(64, n_regions=7)

    def test_unknown_randomizer(self):
        with pytest.raises(ValueError):
            RegionBasedStartGap(64, randomizer="rot13")

    @pytest.mark.parametrize("randomizer", ["feistel", "matrix", "identity"])
    def test_bijection_all_randomizers(self, randomizer):
        scheme = RegionBasedStartGap(64, n_regions=4, randomizer=randomizer, rng=1)
        table = scheme.mapping_snapshot()
        assert len(set(table)) == 64


class TestStaticRandomizer:
    def test_randomize_roundtrip(self):
        scheme = RegionBasedStartGap(256, n_regions=8, rng=2)
        for la in range(0, 256, 17):
            assert scheme.derandomize(scheme.randomize(la)) == la

    def test_randomizer_is_static(self):
        """The LA→IA map never changes, no matter how many writes occur —
        the invariant RTA exploits."""
        scheme = RegionBasedStartGap(64, n_regions=4, remap_interval=1, rng=3)
        before = [scheme.randomize(la) for la in range(64)]
        for i in range(500):
            scheme.record_write(i % 64)
        after = [scheme.randomize(la) for la in range(64)]
        assert before == after

    def test_identity_randomizer(self):
        scheme = RegionBasedStartGap(64, n_regions=4, randomizer="identity")
        assert scheme.randomize(37) == 37


class TestRegionIsolation:
    def test_writes_only_advance_own_region(self):
        scheme = RegionBasedStartGap(
            64, n_regions=4, remap_interval=4, randomizer="identity"
        )
        # All writes to region 0 (IAs 0..15 == LAs under identity).
        movements = 0
        for i in range(16):
            movements += len(scheme.record_write(i % 16))
        assert movements == 4
        # Other regions untouched.
        for r in (1, 2, 3):
            assert scheme.regions.write_count[r] == 0

    def test_moves_stay_in_region(self):
        scheme = RegionBasedStartGap(64, n_regions=4, remap_interval=1, rng=4)
        for i in range(300):
            for move in scheme.record_write(i % 64):
                region_src = move.src // (16 + 1)
                region_dst = move.dst // (16 + 1)
                assert region_src == region_dst


class TestPhysicallyPreviousLA:
    def test_chain_is_cyclic_within_region(self):
        scheme = RegionBasedStartGap(64, n_regions=4, rng=5)
        la = 9
        chain = [la]
        for _ in range(scheme.region_size - 1):
            chain.append(scheme.physically_previous_la(chain[-1]))
        # All distinct, all in the same region, and the chain closes.
        assert len(set(chain)) == scheme.region_size
        region = scheme.region_of(scheme.randomize(la))
        assert all(
            scheme.region_of(scheme.randomize(x)) == region for x in chain
        )
        assert scheme.physically_previous_la(chain[-1]) == la

    def test_adjacency_invariant_over_time(self):
        """f(L_{i-1}) == f(L_i) - 1 holds at any time, through any number
        of gap movements (physical adjacency is rotation-invariant)."""
        scheme = RegionBasedStartGap(64, n_regions=4, remap_interval=1, rng=6)
        la = 22
        prev = scheme.physically_previous_la(la)
        base = scheme.region_of(scheme.randomize(la)) * (16 + 1)
        for i in range(200):
            scheme.record_write(i % 64)
            pa = scheme.translate(la)
            pa_prev = scheme.translate(prev)
            gap = scheme.regions.gap[scheme.region_of(scheme.randomize(la))]
            delta = (pa - pa_prev) % 17
            # Adjacent, except that the gap slot may sit between them.
            assert delta in (1, 2)
            if delta == 2:
                assert (base + gap - pa_prev) % 17 == 1


class TestDataConsistency:
    def test_random_traffic(self):
        config = PCMConfig(n_lines=2**7, endurance=1e12)
        scheme = RegionBasedStartGap(
            config.n_lines, n_regions=4, remap_interval=3, rng=7
        )
        controller = MemoryController(scheme, config)
        drive_and_shadow(controller, 4000, np.random.default_rng(7))
