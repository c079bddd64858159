"""Tests for weight serialisation (the FL wire/storage encoding)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn import (
    flatten_weights,
    unflatten_weights,
    weights_from_bytes,
    weights_to_bytes,
)


class TestBytesRoundtrip:
    def test_roundtrip(self, small_model):
        weights = small_model.get_weights()
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert len(restored) == len(weights)
        for a, b in zip(weights, restored):
            assert set(a) == set(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_empty_layers_preserved(self):
        weights = [{"weight": np.ones((2, 2))}, {}, {"bias": np.zeros(3)}]
        restored = weights_from_bytes(weights_to_bytes(weights))
        assert restored[1] == {}
        np.testing.assert_array_equal(restored[2]["bias"], np.zeros(3))


class TestFlatten:
    def test_flat_length_is_param_count(self, small_model):
        assert flatten_weights(small_model.get_weights()).size == small_model.param_count

    def test_unflatten_wrong_size_raises(self, small_model):
        weights = small_model.get_weights()
        with pytest.raises(ValueError, match="elements"):
            unflatten_weights(np.zeros(3), weights)

    def test_empty_weights(self):
        assert flatten_weights([]).size == 0

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4
        )
    )
    def test_roundtrip_property(self, shapes):
        rng = np.random.default_rng(0)
        weights = [
            {"weight": rng.normal(size=s), "bias": rng.normal(size=(s[0],))}
            for s in shapes
        ]
        flat = flatten_weights(weights)
        assert flat.ndim == 1
        restored = unflatten_weights(flat, weights)
        for a, b in zip(weights, restored):
            for key in a:
                np.testing.assert_allclose(a[key], b[key])

    @given(st.integers(0, 2**32 - 1))
    def test_bytes_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        weights = [{"weight": rng.normal(size=(3, 2))}, {"bias": rng.normal(size=4)}]
        restored = weights_from_bytes(weights_to_bytes(weights))
        np.testing.assert_array_equal(restored[0]["weight"], weights[0]["weight"])
        np.testing.assert_array_equal(restored[1]["bias"], weights[1]["bias"])
