"""Tests for top-k update compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.compression import SparseUpdate, TopKCompressor

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


class TestSparseUpdate:
    def test_densify_roundtrip(self):
        sparse = SparseUpdate(6, np.array([1, 4]), np.array([2.0, -3.0]))
        np.testing.assert_array_equal(sparse.densify(), [0, 2, 0, 0, -3, 0])

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError):
            SparseUpdate(3, np.array([5]), np.array([1.0]))

    def test_wire_bytes_and_density(self):
        sparse = SparseUpdate(100, np.arange(10), np.zeros(10))
        assert sparse.wire_bytes() == 80
        assert sparse.density == pytest.approx(0.1)


class TestTopKCompressor:
    def test_keeps_largest_magnitudes(self):
        compressor = TopKCompressor(ratio=0.25)
        update = np.array([0.1, -5.0, 0.2, 3.0, 0.05, -0.3, 0.0, 1.0])
        sparse = compressor.compress(update)
        np.testing.assert_array_equal(sorted(sparse.values, key=abs, reverse=True), [-5.0, 3.0])

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)

    def test_full_ratio_sends_everything(self):
        compressor = TopKCompressor(ratio=1.0)
        update = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(compressor.compress(update).densify(), update)

    @given(st.integers(0, 200), st.floats(0.05, 1.0))
    def test_densified_never_exceeds_input_magnitude(self, seed, ratio):
        compressor = TopKCompressor(ratio=ratio)
        update = np.random.default_rng(seed).normal(size=30)
        dense = compressor.compress(update).densify()
        mask = dense != 0
        np.testing.assert_array_equal(dense[mask], update[mask])
