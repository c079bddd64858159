"""Tests for the Sequential model container."""

import numpy as np
import pytest

from repro.nn import Dense, Sequential, lenet5, mlp, one_hot


class TestConstruction:
    def test_layers_named_l1_ln(self, small_model):
        assert [l.name for l in small_model.layers] == ["L1", "L2", "L3"]

    def test_layer_accessor_is_one_based(self, small_model):
        assert small_model.layer(1) is small_model.layers[0]
        assert small_model.layer(3) is small_model.layers[2]

    def test_layer_accessor_rejects_out_of_range(self, small_model):
        with pytest.raises(IndexError):
            small_model.layer(0)
        with pytest.raises(IndexError):
            small_model.layer(4)

    def test_param_count_sums_layers(self, small_model):
        assert small_model.param_count == sum(
            l.param_count for l in small_model.layers
        )

    def test_summary_mentions_every_layer(self, small_model):
        text = small_model.summary()
        for i in range(1, 4):
            assert f"L{i}" in text

    def test_architecture_digest_stable_and_sensitive(self):
        a = mlp(num_classes=3, input_shape=(4,), hidden=(5,), seed=0)
        b = mlp(num_classes=3, input_shape=(4,), hidden=(5,), seed=99)
        c = mlp(num_classes=3, input_shape=(4,), hidden=(6,), seed=0)
        assert a.architecture_digest() == b.architecture_digest()  # weights don't matter
        assert a.architecture_digest() != c.architecture_digest()  # structure does


class TestForwardAndLoss:
    def test_forward_shape(self, small_model, rng):
        out = small_model.forward(rng.normal(size=(7, 6)))
        assert out.shape == (7, 4)

    def test_accuracy_bounds(self, small_model, rng):
        x = rng.normal(size=(20, 6))
        y = one_hot(rng.integers(0, 4, 20), 4)
        acc = small_model.accuracy(x, y)
        assert 0.0 <= acc <= 1.0

    def test_loss_positive(self, small_model, rng):
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 4, 4), 4)
        assert small_model.loss(x, y).item() > 0

    def test_gradients_aligned_with_layers(self, small_model, rng):
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 4, 4), 4)
        _, grads = small_model.loss_and_gradients(x, y)
        assert len(grads) == 3
        for layer, g in zip(small_model.layers, grads):
            assert set(g) == set(layer.params)
            for key in g:
                assert g[key].shape == layer.params[key].shape

    def test_gradients_array_returns_copies(self, small_model, rng):
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 4, 4), 4)
        grads = small_model.gradients_array(x, y)
        grads[0]["weight"][:] = 0.0
        again = small_model.gradients_array(x, y)
        assert np.abs(again[0]["weight"]).sum() > 0

    def test_gradient_descent_reduces_loss(self, small_model, rng):
        x = rng.normal(size=(16, 6))
        y = one_hot(rng.integers(0, 4, 16), 4)
        before = small_model.loss(x, y).item()
        for _ in range(5):
            _, grads = small_model.loss_and_gradients(x, y)
            for layer, g in zip(small_model.layers, grads):
                for key, grad_t in g.items():
                    layer.params[key].data -= 0.5 * grad_t.data
        assert small_model.loss(x, y).item() < before


class TestWeights:
    def test_get_set_roundtrip(self, small_model):
        weights = small_model.get_weights()
        twin = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=7)
        twin.set_weights(weights)
        for a, b in zip(small_model.get_weights(), twin.get_weights()):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_set_weights_wrong_length(self, small_model):
        with pytest.raises(ValueError, match="layer weight dicts"):
            small_model.set_weights([{}])

    def test_clone_preserves_weights_and_structure(self, small_model, rng):
        twin = small_model.clone()
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(
            twin.forward(x).data, small_model.forward(x).data
        )

    def test_clone_is_independent(self, small_model):
        twin = small_model.clone()
        twin.layer(1).params["weight"].data[:] = 0.0
        assert np.abs(small_model.layer(1).params["weight"].data).sum() > 0

    def test_astype_copies_and_clone_and_set_weights_keep_the_dtype(self, small_model):
        single = small_model.astype(np.float32)
        assert small_model.dtype == np.float64 and single.dtype == np.float32
        assert single.clone().dtype == np.float32
        single.set_weights(small_model.get_weights())  # float64 arrays in
        assert {p.data.dtype for layer in single.layers for p in layer.params.values()} == {
            np.dtype(np.float32)
        }
        for a, b in zip(small_model.get_weights(), single.get_weights()):
            for key in a:
                np.testing.assert_array_equal(a[key].astype(np.float32), b[key])

    def test_a_float32_model_computes_a_float64_batch_in_float32(self):
        from repro.data import synthetic_cifar

        data = synthetic_cifar(num_samples=4, num_classes=10, seed=0)
        assert data.x.dtype == np.float64
        model = lenet5(num_classes=10, seed=1).astype(np.float32)
        assert model.forward(data.x).data.dtype == np.float32
        assert model.loss(data.x, data.one_hot_labels()).data.dtype == np.float32
        # The cast is the model's: the same batch cast by hand gives the same bits.
        cast = data.x.astype(np.float32)
        np.testing.assert_array_equal(model.forward(data.x).data, model.forward(cast).data)


class TestLeNetIntegration:
    def test_lenet_trains_on_images(self, image_batch):
        model = lenet5(num_classes=5, seed=0, scale=0.5)
        x, y = image_batch
        before = model.loss(x, y).item()
        for _ in range(8):
            _, grads = model.loss_and_gradients(x, y)
            for layer, g in zip(model.layers, grads):
                for key, grad_t in g.items():
                    layer.params[key].data -= 0.2 * grad_t.data
        assert model.loss(x, y).item() < before
