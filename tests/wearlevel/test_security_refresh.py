"""Tests for one-level Security Refresh, including the Fig. 5 walkthrough."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PCMConfig
from repro.sim.memory_system import MemoryController
from repro.wearlevel.base import SwapMove
from repro.wearlevel.security_refresh import SecurityRefresh, SRBank

from tests.conftest import drive_and_shadow


class TestFig5Walkthrough:
    """Reproduce Fig. 5: 4 lines, keyp=0b10, keyc=0b11, one round."""

    @pytest.fixture
    def region(self):
        region = SRBank(1, 4, 1, rng=0)
        # Force the figure's state: previous round used key 10; a new round
        # begins with key 11 and CRP = 0.
        region.keyp[0] = 0b10
        region.keyc[0] = 0b11
        region.crp[0] = 0
        return region

    def test_initial_mapping_uses_keyp(self, region):
        # Fig. 5(a): all LAs mapped with key(10).
        assert [region.translate(0, la) for la in range(4)] == [2, 3, 0, 1]

    def test_first_remap_swaps_0_and_1s_slots(self, region):
        # LA0: old slot 0^10=2, new slot 0^11=3 → swap slots 2 and 3.
        swap = region.remap_step(0)
        assert swap == SwapMove(2, 3)
        assert region.crp[0] == 1
        # LA0 now at 3 (key 11); its pair LA1 moved to 2.
        assert region.translate(0, 0) == 3
        assert region.translate(0, 1) == 2

    def test_second_remap_is_skip(self, region):
        region.remap_step(0)
        # Fig. 5(c): LA1 was already remapped with LA0 — no data movement.
        assert region.remap_step(0) is None
        assert region.crp[0] == 2

    def test_round_completes_with_key_rotation(self, region):
        swaps = [region.remap_step(0) for _ in range(4)]
        assert swaps[0] == SwapMove(2, 3)
        assert swaps[1] is None
        assert swaps[2] == SwapMove(0, 1)
        assert swaps[3] is None
        assert region.crp[0] == 0
        assert region.keyp[0] == 0b11  # rotated
        assert region.round_count[0] == 1
        # Fig. 5(d): final mapping entirely under key 11.
        assert [region.translate(0, la) for la in range(4)] == [3, 2, 1, 0]


class TestSRRegion:
    """One region of an :class:`SRBank`, driven through the scalar path."""

    def test_boot_keys_equal(self):
        region = SRBank(1, 16, 4, rng=1)
        assert region.keyc[0] == region.keyp[0]

    def test_pairwise_property(self):
        """LA XOR keyc == pair XOR keyp: the new slot of LA is the old slot
        of its pair (the property making in-place swaps possible)."""
        region = SRBank(1, 64, 2, rng=2)
        for _ in range(64):  # complete round 1 so keys differ
            region.remap_step(0)
        keyc, keyp = region.keyc.item(0), region.keyp.item(0)
        for la in range(64):
            pair = la ^ keyc ^ keyp
            assert la ^ keyc == pair ^ keyp

    def test_remap_interval(self):
        region = SRBank(1, 8, 3, rng=3)
        steps = [region.record_write(0) for _ in range(9)]
        fired = [i for i, s in enumerate(steps, 1) if i % 3 == 0]
        assert fired == [3, 6, 9]
        assert region.crp[0] == 3

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            SRBank(1, 12, 4)

    def test_translate_range(self):
        region = SRBank(1, 8, 1, rng=0)
        with pytest.raises(ValueError):
            region.translate(0, 8)

    @settings(max_examples=30, deadline=None)
    @given(
        n_bits=st.integers(1, 6),
        steps=st.integers(0, 200),
        seed=st.integers(0, 2**31),
    )
    def test_always_bijective(self, n_bits, steps, seed):
        region = SRBank(1, 1 << n_bits, 1, rng=seed)
        for _ in range(steps):
            region.remap_step(0)
        slots = [region.translate(0, la) for la in range(1 << n_bits)]
        assert len(set(slots)) == 1 << n_bits

    def test_data_follows_swaps(self):
        """Shadow check through three full rounds."""
        n = 16
        region = SRBank(1, n, 1, rng=5)
        slots = [None] * n
        for la in range(n):
            slots[region.translate(0, la)] = la
        for _ in range(3 * n):
            swap = region.remap_step(0)
            if swap is not None:
                a, b = swap.pa_a, swap.pa_b
                slots[a], slots[b] = slots[b], slots[a]
            for la in range(n):
                assert slots[region.translate(0, la)] == la

    def test_each_la_remapped_once_per_round(self):
        region = SRBank(1, 32, 1, rng=6)
        for _ in range(32):
            region.remap_step(0)
        # After a full round every translation uses the (new) keyp.
        assert region.crp[0] == 0
        keyp = region.keyp.item(0)
        assert [region.translate(0, la) for la in range(32)] == [
            la ^ keyp for la in range(32)
        ]


class TestSecurityRefreshScheme:
    def test_no_spare_lines(self):
        assert SecurityRefresh(64, rng=0).n_physical == 64

    def test_key_xor_oracle(self):
        scheme = SecurityRefresh(16, remap_interval=1, rng=1)
        for _ in range(16):
            scheme.record_write(0)
        assert scheme.key_xor == scheme.regions.keyc[0] ^ scheme.regions.keyp[0]

    def test_data_consistency(self):
        config = PCMConfig(n_lines=2**7, endurance=1e12)
        scheme = SecurityRefresh(config.n_lines, remap_interval=3, rng=2)
        controller = MemoryController(scheme, config)
        drive_and_shadow(controller, 4000, np.random.default_rng(2))
