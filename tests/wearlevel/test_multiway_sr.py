"""Tests for Multi-Way SR (per-LA-range independent Security Refresh)."""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.multiway_sr import MultiWaySR

from tests.conftest import drive_and_shadow


class TestMultiWaySR:
    def test_subregion_is_la_high_bits(self):
        scheme = MultiWaySR(64, n_subregions=4, rng=0)
        assert scheme.subregion_of(0) == 0
        assert scheme.subregion_of(15) == 0
        assert scheme.subregion_of(16) == 1
        assert scheme.subregion_of(63) == 3

    def test_la_never_leaves_its_subregion(self):
        """The structural weakness §III-E exploits: the attacker always
        knows which sub-region any LA occupies."""
        scheme = MultiWaySR(64, n_subregions=4, remap_interval=1, rng=1)
        for i in range(2000):
            scheme.record_write(i % 64)
        for la in range(64):
            assert scheme.translate(la) // 16 == la // 16

    def test_bijection(self):
        scheme = MultiWaySR(64, n_subregions=4, rng=2)
        assert len(set(scheme.mapping_snapshot())) == 64

    def test_independent_counters(self):
        scheme = MultiWaySR(64, n_subregions=4, remap_interval=4, rng=3)
        for _ in range(8):
            scheme.record_write(0)  # region 0 only
        assert scheme.regions.write_count[0] == 8
        assert scheme.regions.write_count[1] == 0

    def test_must_divide(self):
        with pytest.raises(ValueError):
            MultiWaySR(64, n_subregions=6)

    def test_data_consistency(self):
        config = PCMConfig(n_lines=2**7, endurance=1e12)
        scheme = MultiWaySR(config.n_lines, n_subregions=8, remap_interval=3, rng=4)
        controller = MemoryController(scheme, config)
        drive_and_shadow(controller, 3000, np.random.default_rng(4))
