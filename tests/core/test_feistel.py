"""Tests for the multi-stage cubing Feistel network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feistel import FeistelNetwork


class TestConstruction:
    def test_requires_positive_bits(self):
        with pytest.raises(ValueError):
            FeistelNetwork(0, [1])

    def test_requires_keys(self):
        with pytest.raises(ValueError):
            FeistelNetwork(4, [])

    def test_keys_masked_to_half_width(self):
        network = FeistelNetwork(4, [0xFF])
        assert network.keys == (0xFF & 0b11,)

    def test_random_factory(self):
        network = FeistelNetwork.random(8, 5, rng=0)
        assert network.n_stages == 5
        assert network.n_bits == 8

    @pytest.mark.parametrize("bits", [2, 9, 16, 32])
    def test_draw_keys_matches_successive_random(self, bits):
        """One ``(count, S)`` draw is the stream of ``count`` draws."""
        batch_rng = np.random.default_rng(3)
        step_rng = np.random.default_rng(3)
        keys = FeistelNetwork.draw_keys(bits, 7, 40, batch_rng)
        assert keys.shape == (40, 7)
        for row in keys:
            expected = FeistelNetwork.random(bits, 7, step_rng).keys
            assert tuple(row.tolist()) == expected
        assert batch_rng.bit_generator.state == step_rng.bit_generator.state

    def test_rekeyed_same_shape_new_keys(self):
        network = FeistelNetwork.random(8, 3, rng=0)
        fresh = network.rekeyed(rng=1)
        assert fresh.n_bits == network.n_bits
        assert fresh.n_stages == network.n_stages
        assert fresh.keys != network.keys


class TestPermutation:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 7, 8, 11])
    @pytest.mark.parametrize("stages", [1, 3, 7])
    def test_is_bijection(self, bits, stages):
        network = FeistelNetwork.random(bits, stages, rng=42)
        table = network.permutation()
        assert sorted(table.tolist()) == list(range(1 << bits))

    @pytest.mark.parametrize("bits", [3, 8, 9])
    def test_decrypt_inverts_encrypt(self, bits):
        network = FeistelNetwork.random(bits, 7, rng=7)
        for x in range(1 << bits):
            assert network.decrypt(network.encrypt(x)) == x

    def test_scalar_matches_vector(self):
        network = FeistelNetwork.random(9, 5, rng=3)
        xs = np.arange(1 << 9, dtype=np.uint64)
        vector = network.encrypt(xs)
        for x in (0, 1, 100, 511):
            assert network.encrypt(x) == int(vector[x])
        back = network.decrypt(vector)
        assert (back == xs).all()

    @pytest.mark.parametrize("bits", [6, 7])
    def test_keyed_pass_matches_per_network(self, bits):
        """Per-address key schedules equal encrypting with each network."""
        a = FeistelNetwork.random(bits, 5, rng=1)
        b = FeistelNetwork.random(bits, 5, rng=2)
        xs = np.arange(1 << bits, dtype=np.uint64)
        pick = xs % 3 == 0
        keys = np.where(pick, a.key_column, b.key_column)
        expected = np.where(pick, a.encrypt(xs), b.encrypt(xs))
        assert (a.encrypt_keyed(xs, keys) == expected).all()

    def test_domain_checked_scalar(self):
        network = FeistelNetwork.random(4, 3, rng=0)
        with pytest.raises(ValueError):
            network.encrypt(16)
        with pytest.raises(ValueError):
            network.decrypt(-1)

    def test_domain_checked_vector(self):
        network = FeistelNetwork.random(4, 3, rng=0)
        with pytest.raises(ValueError):
            network.encrypt(np.array([3, 16], dtype=np.uint64))

    def test_odd_width_stays_in_domain(self):
        """Cycle-walking keeps every output inside [0, 2^B) for odd B."""
        network = FeistelNetwork.random(5, 4, rng=9)
        outputs = network.encrypt(np.arange(32, dtype=np.uint64))
        assert outputs.max() < 32

    def test_deterministic_given_keys(self):
        a = FeistelNetwork(8, [3, 7, 11])
        b = FeistelNetwork(8, [3, 7, 11])
        assert a.permutation().tolist() == b.permutation().tolist()

    def test_different_keys_differ(self):
        a = FeistelNetwork(10, [1, 2, 3])
        b = FeistelNetwork(10, [4, 5, 6])
        assert a.permutation().tolist() != b.permutation().tolist()


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(2, 12),
    stages=st.integers(1, 8),
    seed=st.integers(0, 2**31),
    data=st.data(),
)
def test_roundtrip_property(bits, stages, seed, data):
    network = FeistelNetwork.random(bits, stages, rng=seed)
    x = data.draw(st.integers(0, (1 << bits) - 1))
    y = network.encrypt(x)
    assert 0 <= y < (1 << bits)
    assert network.decrypt(y) == x


class TestRandomization:
    def test_large_domain_randomizes(self):
        """A 7-stage network at 22 bits should spread consecutive inputs."""
        network = FeistelNetwork.random(22, 7, rng=0)
        xs = np.arange(1000, dtype=np.uint64)
        ys = network.encrypt(xs).astype(np.int64)
        gaps = np.abs(np.diff(np.sort(ys)))
        # Consecutive LAs should not stay consecutive.
        consecutive = np.abs(np.diff(ys)) == 1
        assert consecutive.sum() < 5

    def test_more_stages_more_uniform_for_fixed_input(self):
        """The Fig. 14 mechanism: the distribution of ENC_K(x0) over random
        keys K tightens toward uniform as stages grow."""
        rng = np.random.default_rng(0)
        bits, samples = 14, 4000

        def max_bin(stages):
            out = np.empty(samples, dtype=np.int64)
            for i in range(samples):
                out[i] = FeistelNetwork.random(bits, stages, rng).encrypt(5)
            counts = np.bincount(out >> (bits - 6), minlength=64)
            return counts.max()

        assert max_bin(2) > 2 * max_bin(10)
