"""Tests for individual layers: shapes, params, cost-model metadata."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import Conv2D, Dense, Flatten


def build(layer, input_shape, seed=0):
    layer.build(tuple(input_shape), np.random.default_rng(seed))
    return layer


class TestConv2D:
    def test_output_shape_stride_pad(self):
        layer = build(Conv2D(12, 5, stride=2, pad=2), (3, 32, 32))
        assert layer.output_shape == (12, 16, 16)

    def test_fused_pool_halves_spatial(self):
        layer = build(Conv2D(8, 3, stride=1, pad=1, pool=2), (3, 8, 8))
        assert layer.output_shape == (8, 4, 4)

    def test_forward_shape(self):
        layer = build(Conv2D(4, 3, pad=1, activation="relu"), (2, 6, 6))
        out = layer(Tensor(np.zeros((5, 2, 6, 6))))
        assert out.shape == (5, 4, 6, 6)

    def test_weight_param_count_excludes_bias(self):
        layer = build(Conv2D(12, 5), (3, 32, 32))
        assert layer.weight_param_count == 12 * 3 * 25
        assert layer.param_count == 12 * 3 * 25 + 12

    def test_no_bias(self):
        layer = build(Conv2D(4, 3, use_bias=False), (2, 6, 6))
        assert "bias" not in layer.params

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="activation"):
            Conv2D(4, 3, activation="swish")

    def test_bad_input_shape_raises(self):
        with pytest.raises(ValueError, match="expects"):
            build(Conv2D(4, 3), (6,))

    def test_unbuilt_layer_raises_on_call(self):
        with pytest.raises(RuntimeError, match="before build"):
            Conv2D(4, 3)(Tensor(np.zeros((1, 2, 4, 4))))

    def test_flops_scale_with_output_area(self):
        small = build(Conv2D(4, 3, pad=1), (2, 4, 4))
        large = build(Conv2D(4, 3, pad=1), (2, 8, 8))
        assert large.flops_per_sample() == 4 * small.flops_per_sample()


class TestDense:
    def test_auto_flatten_4d_input(self):
        layer = build(Dense(10), (3, 4, 4))
        out = layer(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 10)

    def test_input_shape_collapsed(self):
        layer = build(Dense(7), (3, 4, 4))
        assert layer.input_shape == (48,)
        assert layer.output_shape == (7,)

    def test_set_weights_shape_check(self):
        layer = build(Dense(3), (5,))
        with pytest.raises(ValueError, match="shape mismatch"):
            layer.set_weights({"weight": np.zeros((4, 5))})

    def test_set_weights_unknown_param(self):
        layer = build(Dense(3), (5,))
        with pytest.raises(KeyError, match="no parameter"):
            layer.set_weights({"gamma": np.zeros(3)})

    def test_get_weights_is_copy(self):
        layer = build(Dense(3), (5,))
        w = layer.get_weights()
        w["weight"][:] = 99.0
        assert not np.any(layer.params["weight"].data == 99.0)

    def test_parameters_stable_order(self):
        layer = build(Dense(3), (5,))
        names = sorted(layer.params)
        assert [layer.params[n] for n in names] == layer.parameters()


class TestMaxPoolAndFlatten:
    def test_maxpool_indivisible_raises(self):
        # Conv2D's fused pool (AlexNet's MP2) needs dims divisible by it.
        with pytest.raises(ValueError, match="divide"):
            build(Conv2D(3, 3, pad=1, pool=2), (3, 7, 8))

    def test_flatten(self):
        layer = build(Flatten(), (3, 4, 4))
        assert layer.output_shape == (48,)
        out = layer(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_parameter_free_tee_memory(self):
        layer = build(Flatten(), (3, 4, 4))
        # Only activations, no weights.
        assert layer.param_count == 0
        assert layer.tee_memory_bytes(1) == 4 * (3 * 4 * 4 + 2 * 48)
