"""Tests for top-k update compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.compression import SparseUpdate, TopKCompressor

settings.register_profile("ci", max_examples=20, deadline=None)
settings.load_profile("ci")


def densify(sparse):
    out = np.zeros(sparse.size)
    out[sparse.indices] = sparse.values
    return out


class TestSparseUpdate:
    def test_index_bounds_checked(self):
        with pytest.raises(ValueError):
            SparseUpdate(3, np.array([5]), np.array([1.0]))


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
        np.testing.assert_array_equal(densify(compressor.compress(update)), update)

    @given(st.integers(0, 200), st.floats(0.05, 1.0))
    def test_densified_never_exceeds_input_magnitude(self, seed, ratio):
        compressor = TopKCompressor(ratio=ratio)
        update = np.random.default_rng(seed).normal(size=30)
        dense = densify(compressor.compress(update))
        mask = dense != 0
        np.testing.assert_array_equal(dense[mask], update[mask])
