"""Tests for failed-line sparing, endurance variation and degradation."""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.pcm.array import PCMArray, UncorrectableError
from repro.pcm.sparing import (
    DeviceReadOnly,
    SparesExhausted,
    SparingController,
)
from repro.pcm.timing import ALL0, ALL1, MIXED
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.startgap import StartGap


class TestEnduranceVariation:
    def test_default_is_scalar(self):
        array = PCMArray(PCMConfig(n_lines=16))
        assert array.endurance_map is None

    def test_variation_draws_per_line(self):
        array = PCMArray(
            PCMConfig(n_lines=256, endurance=1e6),
            endurance_variation=0.2, rng=0,
        )
        assert array.endurance_map is not None
        assert array.endurance_map.std() > 0
        assert array.endurance_map.mean() == pytest.approx(1e6, rel=0.05)

    def test_weak_line_fails_first(self):
        config = PCMConfig(n_lines=16, endurance=1000)
        array = PCMArray(config, endurance_variation=0.3, rng=1)
        weakest = int(np.argmin(array.endurance_map))
        limit = int(np.ceil(array.endurance_map[weakest]))
        for _ in range(limit - 1):
            array.write(weakest, ALL0)
        with pytest.raises(Exception):
            array.write(weakest, ALL0)

    def test_variation_shortens_uniform_lifetime(self):
        """Under uniform traffic the weakest line bounds the lifetime —
        the classical argument for margin below nominal endurance."""
        def writes_to_failure(cv, seed):
            config = PCMConfig(n_lines=64, endurance=500)
            array = PCMArray(config, endurance_variation=cv, rng=seed)
            count = 0
            try:
                while True:
                    array.write(count % 64, ALL1)
                    count += 1
            except Exception:
                return count

        nominal = writes_to_failure(0.0, 0)
        varied = np.mean([writes_to_failure(0.25, s) for s in range(3)])
        assert varied < nominal

    def test_negative_variation_rejected(self):
        with pytest.raises(ValueError):
            PCMArray(PCMConfig(n_lines=16), endurance_variation=-0.1)

    def test_remaining_endurance_uses_map(self):
        array = PCMArray(
            PCMConfig(n_lines=16, endurance=1000),
            endurance_variation=0.2, rng=2,
        )
        remaining = array.remaining_endurance()
        np.testing.assert_allclose(remaining, array.endurance_map)


class TestSparingController:
    def make(self, n_spares=4, endurance=100, scheme=None, n_lines=16):
        config = PCMConfig(n_lines=n_lines, endurance=endurance)
        return SparingController(
            scheme or NoWearLeveling(n_lines), config, n_spares=n_spares
        )

    def test_survives_first_failure(self):
        controller = self.make()
        for _ in range(150):  # > endurance: would kill a bare controller
            controller.write(3, ALL1)
        assert controller.failures == 1
        assert controller.spares_left == 3
        assert controller.first_failure_writes is not None

    def test_data_preserved_across_sparing(self):
        controller = self.make(endurance=100)
        controller.write(3, ALL1)
        for _ in range(120):
            controller.write(3, ALL1)
        data, _ = controller.read(3)
        assert data == ALL1

    def test_retirement_salvages_content_without_wear_or_time(self):
        controller = self.make()
        controller.write(3, MIXED)
        array = controller.array
        wear, elapsed = array.wear.copy(), array.elapsed_ns
        controller._spare_out(3)
        spare = controller._redirect(3)
        assert spare == controller._spare_base
        assert array.peek(spare) == MIXED
        assert np.array_equal(array.wear, wear) and array.elapsed_ns == elapsed

    def test_spares_exhausted_raises(self):
        controller = self.make(n_spares=2, endurance=50)
        with pytest.raises(SparesExhausted) as info:
            for _ in range(100_000):
                controller.write(3, ALL1)
        assert info.value.failures == 3  # 1 original + 2 spares

    def test_capacity_lifetime_multiplies(self):
        """Each spare buys one more endurance quantum on a hammered line."""
        def writes_until_death(n_spares):
            controller = self.make(n_spares=n_spares, endurance=50)
            count = 0
            try:
                while True:
                    controller.write(3, ALL1)
                    count += 1
            except SparesExhausted:
                return count

        assert writes_until_death(4) > 2 * writes_until_death(1)

    def test_works_with_wear_leveling(self):
        controller = self.make(
            n_spares=8, endurance=200, scheme=StartGap(16, 2)
        )
        rng = np.random.default_rng(3)
        shadow = {}
        for _ in range(3000):
            la = int(rng.integers(0, 16))
            data = ALL1 if rng.random() < 0.5 else ALL0
            try:
                controller.write(la, data)
            except SparesExhausted:
                break
            shadow[la] = data
            probe = la
            got, _ = controller.read(probe)
            assert got == shadow[probe]

    def test_zero_spares(self):
        controller = self.make(n_spares=0, endurance=10)
        with pytest.raises(SparesExhausted):
            for _ in range(20):
                controller.write(0, ALL1)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(n_spares=-1)

    def test_out_of_range_address_rejected(self):
        controller = self.make()
        with pytest.raises(ValueError):
            controller.write(16, ALL1)
        with pytest.raises(ValueError):
            controller.write(-1, ALL1)
        with pytest.raises(ValueError):
            controller.read(16)

    def test_spare_that_fails_is_respared(self):
        """A redirect chain: line 3 -> spare 0 -> spare 1 -> spare 2."""
        controller = self.make(n_spares=4, endurance=50)
        for _ in range(170):  # kills the original and two spares
            controller.write(3, ALL1)
        assert controller.failures == 3
        base = controller._spare_base
        assert controller.remap_table[base] == base + 1
        assert controller.remap_table[base + 1] == base + 2
        assert controller._redirect(3) == base + 2
        data, _ = controller.read(3)
        assert data == ALL1

    def test_zero_spares_counts_first_failure(self):
        controller = self.make(n_spares=0, endurance=10)
        with pytest.raises(SparesExhausted) as info:
            for _ in range(20):
                controller.write(0, ALL1)
        assert info.value.failures == 1
        assert controller.spares_left == 0
        assert controller.first_failure_writes == 10


class TestEnduranceVariationPropagation:
    """Satellite fix: variation/rng reach the inner controller and the
    spare pool extends the endurance map (previously an IndexError)."""

    def test_endurance_map_covers_spares(self):
        controller = SparingController(
            NoWearLeveling(16),
            PCMConfig(n_lines=16, endurance=1000),
            n_spares=4,
            endurance_variation=0.2,
            rng=0,
        )
        array = controller.array
        assert array.endurance_map is not None
        assert len(array.endurance_map) == array.n_physical == 20

    def test_spare_writes_respect_varied_endurance(self):
        """Hammering through into the spare pool must not index out of
        bounds and must honor each spare's own endurance draw."""
        controller = SparingController(
            NoWearLeveling(16),
            PCMConfig(n_lines=16, endurance=100),
            n_spares=3,
            endurance_variation=0.3,
            rng=5,
        )
        with pytest.raises(SparesExhausted) as info:
            for _ in range(10_000):
                controller.write(3, ALL1)
        assert info.value.failures == 4  # original + all three spares

    def test_same_seed_reproduces_lifetime(self):
        def writes_until_death(seed):
            controller = SparingController(
                NoWearLeveling(16),
                PCMConfig(n_lines=16, endurance=100),
                n_spares=3,
                endurance_variation=0.3,
                rng=seed,
            )
            count = 0
            try:
                while True:
                    controller.write(3, ALL1)
                    count += 1
            except SparesExhausted:
                return count

        assert writes_until_death(9) == writes_until_death(9)


class TestGracefulDegradation:
    def make(self, **overrides):
        params = dict(
            n_spares=2,
            degraded_mode=True,
        )
        config = PCMConfig(n_lines=16, endurance=overrides.pop("endurance", 50))
        params.update(overrides)
        return SparingController(NoWearLeveling(16), config, **params)

    def test_read_only_instead_of_exception(self):
        controller = self.make()
        with pytest.raises(DeviceReadOnly) as info:
            for _ in range(10_000):
                controller.write(3, ALL1)
        assert controller.read_only
        assert info.value.health.read_only
        assert info.value.health.mode == "read-only"

    def test_reads_survive_read_only_mode(self):
        controller = self.make()
        controller.write(5, ALL1)
        with pytest.raises(DeviceReadOnly):
            for _ in range(10_000):
                controller.write(3, ALL1)
        data, _ = controller.read(5)
        assert data == ALL1

    def test_subsequent_writes_rejected_and_counted(self):
        controller = self.make()
        with pytest.raises(DeviceReadOnly):
            for _ in range(10_000):
                controller.write(3, ALL1)
        for _ in range(5):
            with pytest.raises(DeviceReadOnly):
                controller.write(7, ALL0)
        assert controller.health().rejected_writes == 6

    def test_default_mode_still_raises_spares_exhausted(self):
        controller = self.make(degraded_mode=False)
        with pytest.raises(SparesExhausted):
            for _ in range(10_000):
                controller.write(3, ALL1)


class TestUncorrectableReadRetirement:
    def test_read_retires_through_spare_pool(self):
        """A read whose error count overflows ECP retires the line and is
        transparently served from the spare."""
        config = PCMConfig(
            n_lines=16,
            endurance=1e6,
            read_disturb_ber=5e-4,  # mean ~1 error/read, occasionally > 2
            ecp_entries=2,
        )
        controller = SparingController(
            NoWearLeveling(16), config, n_spares=8, fault_rng=0
        )
        controller.write(3, ALL1)
        for _ in range(40):
            data, _ = controller.read(3)
            assert data == ALL1  # every read served despite retirements
        assert controller.failures == 4  # seed-pinned retirement count
        assert controller.spares_left == 4
        assert controller.array.ecc.corrected_total > 0

    def test_write_path_retires_stuck_line(self):
        """A line whose stuck cells overflow ECP is retired on the write."""
        config = PCMConfig(
            n_lines=16,
            endurance=10_000,
            verify_fail_base=0.9,
            verify_fail_wear_factor=0.0,
            max_write_retries=0,
            ecp_entries=2,
        )
        controller = SparingController(
            NoWearLeveling(16), config, n_spares=16, fault_rng=0
        )
        for _ in range(20):
            controller.write(3, MIXED)
        assert controller.failures >= 1
        data, _ = controller.read(3)
        assert data == MIXED


class TestDeviceHealth:
    def test_healthy_report(self):
        controller = SparingController(
            NoWearLeveling(16), PCMConfig(n_lines=16, endurance=100), n_spares=4
        )
        health = controller.health()
        assert health.mode == "normal"
        assert health.n_lines == 16
        assert health.n_spares == 4
        assert health.spares_left == 4
        assert health.failures == 0
        assert "normal" in health.summary()

    def test_degraded_report_after_sparing(self):
        controller = SparingController(
            NoWearLeveling(16), PCMConfig(n_lines=16, endurance=50), n_spares=4
        )
        for _ in range(60):
            controller.write(3, ALL1)
        health = controller.health()
        assert health.mode == "degraded"
        assert health.failures == 1
        assert health.retired_lines == 1
        assert health.spares_left == 3

    def test_retirement_log_matches_failures(self):
        controller = SparingController(
            NoWearLeveling(16), PCMConfig(n_lines=16, endurance=50), n_spares=4
        )
        for _ in range(120):
            controller.write(3, ALL1)
        assert len(controller.retirement_log) == controller.failures == 2
        # Log entries are (device_total_writes, failed_pa), in order.
        writes = [w for w, _ in controller.retirement_log]
        assert writes == sorted(writes)
