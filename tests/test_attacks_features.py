"""Tests for attack feature extraction and protected-column masking."""

import numpy as np
import pytest

from repro.attacks import (
    features_from_weight_grads,
    gradient_feature_vector,
    layer_block_sizes,
    layer_feature_block,
)
from repro.attacks.mia import membership_feature_block
from repro.nn import lenet5, one_hot


@pytest.fixture(scope="module")
def model():
    return lenet5(num_classes=5, seed=0, scale=0.5)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 3, 32, 32)), one_hot(rng.integers(0, 5, 4), 5)


class TestLayerFeatureBlock:
    def test_width_is_2_units_plus_1(self):
        grad = np.random.default_rng(0).normal(size=(6, 10))
        assert layer_feature_block(grad).size == 2 * 6 + 1

    def test_scale_invariant_except_lognorm(self):
        grad = np.random.default_rng(0).normal(size=(4, 8))
        a = layer_feature_block(grad)
        b = layer_feature_block(grad * 100.0)
        np.testing.assert_allclose(a[:-1], b[:-1], atol=1e-10)
        assert b[-1] == pytest.approx(a[-1] + np.log(100.0))

    def test_conv_grad_flattened_per_filter(self):
        grad = np.random.default_rng(0).normal(size=(3, 2, 5, 5))
        assert layer_feature_block(grad).size == 7

    def test_membership_block_is_sorted(self):
        grad = np.random.default_rng(0).normal(size=(8, 4))
        block = membership_feature_block(grad)
        profile = block[:-1]
        assert np.all(np.diff(profile) <= 0)

    def test_membership_block_permutation_invariant(self):
        grad = np.random.default_rng(0).normal(size=(8, 4))
        permuted = grad[np.random.default_rng(1).permutation(8)]
        np.testing.assert_allclose(
            membership_feature_block(grad), membership_feature_block(permuted)
        )


class TestBlockSizes:
    def test_lenet_blocks(self, model):
        sizes = layer_block_sizes(model)
        assert len(sizes) == 5
        # Each layer: 2 * output-units + 1.
        assert sizes[4] == 2 * 5 + 1  # dense head with 5 classes

    def test_parameter_free_layer_is_zero(self):
        from repro.nn import Flatten, Dense, Sequential

        m = Sequential([Flatten(), Dense(3)], input_shape=(2, 4, 4), seed=0)
        assert layer_block_sizes(m) == [0, 2 * 3 + 1]


class TestGradientFeatureVector:
    def test_total_width(self, model, batch):
        x, y = batch
        vec = gradient_feature_vector(model, x, y)
        assert vec.size == sum(layer_block_sizes(model))

    def test_protected_blocks_are_nan(self, model, batch):
        x, y = batch
        vec = gradient_feature_vector(model, x, y, protected=(2,))
        sizes = layer_block_sizes(model)
        start = sizes[0]
        block = vec[start : start + sizes[1]]
        assert np.isnan(block).all()
        assert not np.isnan(vec[:start]).any()

    def test_no_protection_no_nan(self, model, batch):
        x, y = batch
        assert not np.isnan(gradient_feature_vector(model, x, y)).any()

    def test_features_deterministic(self, model, batch):
        x, y = batch
        np.testing.assert_array_equal(
            gradient_feature_vector(model, x, y),
            gradient_feature_vector(model, x, y),
        )


class TestMasking:
    def test_none_grads_treated_as_hidden(self, model):
        grads = [None] * 5
        vec = features_from_weight_grads(model, grads)
        assert np.isnan(vec).all()
