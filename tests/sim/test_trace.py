"""Tests for synthetic trace generators."""

import itertools

import numpy as np
import pytest

from repro.pcm.timing import ALL0, ALL1
from repro.sim.trace import (
    TraceEntry,
    ZipfSampler,
    repeated_address_chunks,
    repeated_address_trace,
    sequential_chunks,
    sequential_trace,
    trace_chunks,
    trace_entries,
    uniform_random_chunks,
    uniform_random_trace,
    zipf_chunks,
    zipf_trace,
)


class TestRepeatedAddress:
    def test_fixed_address(self):
        entries = list(repeated_address_trace(7, n_writes=5))
        assert len(entries) == 5
        assert all(e.la == 7 for e in entries)
        assert all(e.data == ALL1 for e in entries)

    def test_infinite_stream(self):
        stream = repeated_address_trace(3)
        head = list(itertools.islice(stream, 100))
        assert len(head) == 100

    def test_custom_data(self):
        entry = next(iter(repeated_address_trace(1, data=ALL0)))
        assert entry.data == ALL0


class TestSequential:
    def test_wraps(self):
        entries = list(sequential_trace(4, n_writes=10))
        assert [e.la for e in entries] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


class TestUniformRandom:
    def test_in_range_and_reproducible(self):
        a = [e.la for e in uniform_random_trace(32, n_writes=200, rng=1)]
        b = [e.la for e in uniform_random_trace(32, n_writes=200, rng=1)]
        assert a == b
        assert all(0 <= la < 32 for la in a)

    def test_covers_space(self):
        las = {e.la for e in uniform_random_trace(8, n_writes=500, rng=2)}
        assert las == set(range(8))

    def test_exact_count_across_batches(self):
        entries = list(uniform_random_trace(8, n_writes=10000, rng=0, batch=64))
        assert len(entries) == 10000


class TestZipf:
    def test_skew(self):
        las = [e.la for e in zipf_trace(64, n_writes=5000, alpha=1.5, rng=3)]
        counts = np.bincount(las, minlength=64)
        # Rank 0 must dominate the tail.
        assert counts[0] > 5 * counts[32:].max()

    def test_lower_alpha_less_skewed(self):
        def top_share(alpha):
            las = [e.la for e in zipf_trace(64, n_writes=4000, alpha=alpha, rng=4)]
            counts = np.bincount(las, minlength=64)
            return counts[0] / counts.sum()

        assert top_share(0.5) < top_share(2.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            next(iter(zipf_trace(8, alpha=0.0)))

    def test_exact_count(self):
        assert len(list(zipf_trace(16, n_writes=100, rng=0))) == 100


class TestZipfSampler:
    @pytest.mark.parametrize(
        "n_lines", [1, 2, 3, 7, 100, 257, 1000, 4096, 5000, 1 << 16, 1 << 20]
    )
    @pytest.mark.parametrize("alpha", [0.5, 0.99, 1.2, 2, 4])
    def test_draws_what_choice_draws(self, n_lines, alpha):
        """Two successive draws of each size equal ``Generator.choice``'s
        over the same weights, and leave the generator in its state."""
        sampler = ZipfSampler(n_lines, alpha)
        for seed, size in itertools.product(range(3), [1, 17, 8192]):
            gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                got = sampler.draw(gen, size)
                assert got.dtype == np.int64
                assert np.array_equal(got, twin.choice(n_lines, size, p=sampler.weights))
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_weights(self):
        sampler = ZipfSampler(4, 1.0)
        assert sampler.weights.tolist() == pytest.approx(
            [12 / 25, 6 / 25, 4 / 25, 3 / 25]
        )


class TestPlainIntAddresses:
    """Scalar generators must yield plain ``int`` la, never np.int64 —
    downstream code hashes and compares them against Python ints."""

    def test_all_generators_yield_python_ints(self):
        streams = [
            repeated_address_trace(3, n_writes=20),
            sequential_trace(8, n_writes=20),
            uniform_random_trace(8, n_writes=20, rng=0),
            zipf_trace(8, n_writes=20, rng=0),
        ]
        for stream in streams:
            for entry in stream:
                assert type(entry.la) is int


class TestChunkedTwins:
    """Chunked generators draw the identical RNG stream as their scalar
    twins, so an experiment can switch engines without changing data."""

    def test_uniform_same_stream(self):
        scalar = [e.la for e in uniform_random_trace(32, 1000, rng=5)]
        chunked = np.concatenate(
            [las for las, _ in uniform_random_chunks(32, 1000, rng=5)]
        )
        assert scalar == chunked.tolist()

    def test_zipf_same_stream(self):
        scalar = [e.la for e in zipf_trace(32, 1000, alpha=1.4, rng=6)]
        chunked = np.concatenate(
            [las for las, _ in zipf_chunks(32, 1000, alpha=1.4, rng=6)]
        )
        assert scalar == chunked.tolist()

    def test_batch_boundary_does_not_change_stream(self):
        coarse = np.concatenate(
            [las for las, _ in uniform_random_chunks(32, 1000, rng=7,
                                                     batch=4096)]
        )
        # Different batch => different per-chunk draws; the *scalar* twin
        # must match whichever batch it was built with.
        fine_scalar = [
            e.la for e in uniform_random_trace(32, 1000, rng=7, batch=100)
        ]
        fine = np.concatenate(
            [las for las, _ in uniform_random_chunks(32, 1000, rng=7,
                                                     batch=100)]
        )
        assert fine_scalar == fine.tolist()
        assert coarse.shape == fine.shape

    def test_chunk_dtypes_and_sizes(self):
        chunks = list(sequential_chunks(16, n_writes=100, batch=33))
        assert [las.size for las, _ in chunks] == [33, 33, 33, 1]
        for las, datas in chunks:
            assert las.dtype == np.int64
            assert datas.dtype == np.int8
            assert las.size == datas.size

    def test_repeated_address_chunks(self):
        las, datas = next(repeated_address_chunks(9, n_writes=10, data=ALL0))
        assert (las == 9).all()
        assert (datas == int(ALL0)).all()


class TestTraceChunksAdapter:
    def test_roundtrip(self):
        entries = [TraceEntry(la, ALL1) for la in range(10)]
        chunks = list(trace_chunks(iter(entries), batch=4))
        assert [las.tolist() for las, _ in chunks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9],
        ]
        for _, datas in chunks:
            assert (datas == int(ALL1)).all()

    def test_empty(self):
        assert list(trace_chunks(iter(()))) == []

    def test_batch_validated(self):
        with pytest.raises(ValueError, match="batch"):
            next(trace_chunks(iter(()), batch=0))
        with pytest.raises(ValueError, match="batch"):
            next(uniform_random_chunks(8, 10, rng=0, batch=0))


class TestTraceEntriesAdapter:
    def test_unrolls_chunked_stream(self):
        entries = list(trace_entries(sequential_chunks(4, n_writes=6,
                                                       batch=4)))
        assert [e.la for e in entries] == [0, 1, 2, 3, 0, 1]
        assert all(type(e.la) is int for e in entries)
        assert all(e.data == ALL1 for e in entries)

    def test_passes_entry_stream_through(self):
        source = [TraceEntry(1, ALL0), TraceEntry(2, ALL1)]
        assert list(trace_entries(iter(source))) == source

    def test_inverse_of_trace_chunks(self):
        source = [TraceEntry(la % 5, ALL0 if la % 2 else ALL1)
                  for la in range(17)]
        assert list(trace_entries(trace_chunks(iter(source), batch=4))) \
            == source

    def test_empty(self):
        assert list(trace_entries(iter(()))) == []
