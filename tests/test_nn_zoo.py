"""The model zoo must match the paper's Table 4 layer for layer."""

import numpy as np
import pytest

from repro.nn import alexnet, lenet5, mlp, one_hot


class TestLeNet5:
    def test_table4_shapes(self):
        model = lenet5()
        expected = [
            ((3, 32, 32), (12, 16, 16)),
            ((12, 16, 16), (12, 8, 8)),
            ((12, 8, 8), (12, 8, 8)),
            ((12, 8, 8), (12, 8, 8)),
            ((768,), (100,)),
        ]
        for layer, (in_shape, out_shape) in zip(model.layers, expected):
            assert layer.input_shape == in_shape
            assert layer.output_shape == out_shape

    def test_l5_has_76800_weights(self):
        # The parameter count behind the paper's 4.68 s allocation time.
        assert lenet5().layer(5).weight_param_count == 76800

    def test_tee_memory_close_to_table6(self):
        """Per-layer TEE memory at batch 32 within 10% of the paper."""
        paper_mib = {1: 1.127, 2: 0.565, 3: 0.286, 4: 0.286, 5: 0.704}
        model = lenet5()
        for index, expected in paper_mib.items():
            measured = model.layer(index).tee_memory_bytes(32) / 2**20
            assert measured == pytest.approx(expected, rel=0.10)

    def test_scale_reduces_parameters(self):
        assert lenet5(scale=0.5).param_count < lenet5().param_count


class TestAlexNet:
    def test_table4_shapes(self):
        model = alexnet()
        expected_out = [
            (64, 8, 8),
            (192, 4, 4),
            (384, 4, 4),
            (256, 4, 4),
            (256, 2, 2),
            (4096,),
            (4096,),
            (100,),
        ]
        assert [layer.output_shape for layer in model.layers] == expected_out

    def test_dense_input_is_1024(self):
        assert alexnet().layer(6).input_shape == (1024,)

    def test_scaled_alexnet_trains(self):
        model = alexnet(num_classes=5, scale=0.1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 32, 32))
        y = one_hot(rng.integers(0, 5, 2), 5)
        loss, grads = model.loss_and_gradients(x, y)
        assert loss.item() > 0
        assert grads[7]["weight"].shape == model.layer(8).params["weight"].shape


class TestMLP:
    def test_depth(self):
        assert mlp(3, (4,), hidden=(8, 8, 8)).num_layers == 4

    def test_head_is_linear(self):
        model = mlp(3, (4,), hidden=(8,))
        assert model.layer(2).activation == "linear"
