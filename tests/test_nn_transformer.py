"""Transformer model family: tiny ViT / GPT blocks in the model zoo.

Builds, block/role metadata, multi-stream memory accounting, training, and
the planned secure-pool budget (shapes alone) equalling
``CostModel.tee_memory_bytes`` for every transformer x policy row.
"""

import numpy as np
import pytest

from repro.core.policy import (
    DynamicPolicy,
    NoProtection,
    PeltaPolicy,
    StaticPolicy,
)
from repro.nn import gpt_tiny, one_hot, vit_tiny
from repro.tee import CostModel


def _batch(model, n=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, *model.input_shape))
    y = one_hot(rng.integers(0, model.output_shape[-1], size=n), model.output_shape[-1])
    return x, y


class TestZooEntries:
    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    def test_builds_with_block_metadata(self, factory):
        model = factory(num_classes=10, seed=0)
        assert model.num_layers == 15  # embed + 2 blocks x 6 + ln_f + head
        layout = model.layout()
        assert layout.block_names() == ["block1", "block2"]
        roles = [layout.ref(i).role for i in range(2, 8)]
        assert roles == ["ln1", "qkv", "softmax", "attn_out", "ln2", "mlp"]

    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    def test_forward_shape_and_determinism(self, factory):
        a = factory(num_classes=7, seed=3)
        b = factory(num_classes=7, seed=3)
        x, _ = _batch(a, n=2)
        out_a, out_b = a.forward(x).data, b.forward(x).data
        assert out_a.shape == (2, 7)
        np.testing.assert_array_equal(out_a, out_b)

    def test_scale_shrinks_model(self):
        full = vit_tiny(seed=0)
        half = vit_tiny(seed=0, scale=0.5)
        assert half.param_count < full.param_count

    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    def test_training_reduces_loss(self, factory):
        model = factory(num_classes=4, seed=1)
        x, y = _batch(model, n=8, seed=1)
        first = float(model.loss(x, y).data)
        for _ in range(15):
            _, grads = model.loss_and_gradients(x, y)
            for layer, g in zip(model.layers, grads):
                for key, grad_t in g.items():
                    layer.params[key].data -= 0.1 * grad_t.data
        assert float(model.loss(x, y).data) < first

    def test_clone_is_bitwise(self):
        model = vit_tiny(seed=2)
        twin = model.clone()
        for wa, wb in zip(model.get_weights(), twin.get_weights()):
            assert set(wa) == set(wb)
            for key in wa:
                np.testing.assert_array_equal(wa[key], wb[key])


class TestMemoryAccounting:
    def test_multi_stream_elems_sum_streams(self):
        model = vit_tiny(seed=0)
        softmax = model.layer(4)  # (x, q, k, v) -> (x, a, v)
        assert softmax.param_count == 0
        assert softmax.input_elems() > softmax.output_elems() > 0
        # tee_memory_bytes = 4 * (2*params + in + 2*out) per sample
        per_sample = 4 * (softmax.input_elems() + 2 * softmax.output_elems())
        assert softmax.tee_memory_bytes(8) == 8 * per_sample

    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    def test_planner_matches_cost_model_for_every_policy(self, factory, shape_budget):
        """Planned secure-pool peak == CostModel.tee_memory_bytes, per row."""
        model = factory(num_classes=10, seed=0)
        layout = model.layout()
        batch = 16
        cost_model = CostModel(batch_size=batch)
        policies = [
            NoProtection(layout),
            PeltaPolicy(layout),
            PeltaPolicy(layout, blocks=["block2"]),
            PeltaPolicy(layout, size_mw=1, v_mw=(0.5, 0.5), seed=4),
            StaticPolicy(layout, ["block1.softmax", "block1.ln2"]),
            DynamicPolicy(layout, 3, (1 / 13,) * 13, seed=4),
        ]
        for policy in policies:
            for cycle in range(6):
                protected = policy.layers_for_cycle(cycle)
                assert shape_budget(model, protected, batch) == (
                    cost_model.tee_memory_bytes(model, protected)
                )

    def test_single_stream_layers_unchanged(self):
        """The multi-stream generalisation is invisible to conv layers."""
        from repro.nn import lenet5

        model = lenet5()
        for index in range(1, 6):
            layer = model.layer(index)
            in_elems = int(np.prod(layer.input_shape))
            out_elems = int(np.prod(layer.output_shape))
            expected = 4 * (
                2 * layer.param_count + 8 * in_elems + 2 * 8 * out_elems
            )
            assert layer.tee_memory_bytes(8) == expected
