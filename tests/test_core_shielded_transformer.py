"""Shielded execution of transformer models (tuple activation streams).

Attention sublayers pass residual streams as tuples between layers; the
enclave boundary must marshal every stream across world switches without
changing a single bit of the training computation, and the runtime pool
peak must equal both the shape-only plan and the cost model.
"""

import numpy as np
import pytest

from repro.core.policy import NoProtection, PeltaPolicy, StaticPolicy
from repro.core.shielded import ShieldedModel
from repro.nn import gpt_tiny, one_hot, vit_tiny
from repro.tee import CostModel, TrustedIOPath

BATCH = 4
LR = 0.05


def _batch(model, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((BATCH, *model.input_shape))
    y = one_hot(
        rng.integers(0, model.output_shape[-1], size=BATCH), model.output_shape[-1]
    )
    return x, y


def _train_plain(model, x, y, cycles):
    for _ in range(cycles):
        _, grads = model.loss_and_gradients(x, y)
        for layer, g in zip(model.layers, grads):
            for key, grad_t in g.items():
                layer.params[key].data -= LR * grad_t.data
    return model.get_weights()


def _train_shielded(model, policy, x, y, cycles):
    """Train ``cycles`` shielded cycles; returns (per-cycle leakage, weights)."""
    shielded = ShieldedModel(model, policy, batch_size=BATCH)
    records = []
    for cycle in range(cycles):
        shielded.begin_cycle(cycle=cycle)
        shielded.train_step(x, y, lr=LR)
        records.append(shielded.end_cycle())
    return records, model.get_weights()


def _assert_weights_equal(a, b):
    for wa, wb in zip(a, b):
        assert set(wa) == set(wb)
        for key in wa:
            np.testing.assert_array_equal(wa[key], wb[key])


POLICY_BUILDERS = {
    "mid-block-static": lambda layout: StaticPolicy(
        layout, ["block1.softmax", "block1.ln2"]
    ),
    "pelta-static": lambda layout: PeltaPolicy(layout),
    "pelta-mw": lambda layout: PeltaPolicy(
        layout, size_mw=1, v_mw=(0.5, 0.5), seed=7
    ),
    "boundary-spanning": lambda layout: StaticPolicy(
        layout, ["block1.mlp", "block2.ln1"]
    ),
}


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    @pytest.mark.parametrize("name", sorted(POLICY_BUILDERS))
    def test_shielded_training_matches_unshielded(self, factory, name):
        plain = factory(num_classes=6, seed=11)
        shadow = factory(num_classes=6, seed=11)
        x, y = _batch(plain, seed=3)
        reference = _train_plain(plain, x, y, cycles=3)
        policy = POLICY_BUILDERS[name](shadow.layout())
        _, shielded_weights = _train_shielded(shadow, policy, x, y, cycles=3)
        _assert_weights_equal(reference, shielded_weights)

    def test_no_protection_matches_too(self):
        plain = vit_tiny(num_classes=6, seed=5)
        shadow = vit_tiny(num_classes=6, seed=5)
        x, y = _batch(plain, seed=1)
        reference = _train_plain(plain, x, y, cycles=2)
        _, shielded_weights = _train_shielded(
            shadow, NoProtection(shadow.layout()), x, y, cycles=2
        )
        _assert_weights_equal(reference, shielded_weights)


class TestPoolPeakInvariant:
    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    @pytest.mark.parametrize("name", sorted(POLICY_BUILDERS))
    def test_runtime_peak_equals_plan_and_cost_model(self, factory, name, shape_budget):
        model = factory(num_classes=6, seed=11)
        policy = POLICY_BUILDERS[name](model.layout())
        x, y = _batch(model, seed=3)
        records, _ = _train_shielded(model, policy, x, y, cycles=2)
        cost_model = CostModel(batch_size=BATCH)
        for cycle, record in enumerate(records):
            protected = policy.layers_for_cycle(cycle)
            planned = shape_budget(model, protected, BATCH)
            expected = cost_model.tee_memory_bytes(model, protected)
            assert record.peak_tee_bytes == planned == expected

    @pytest.mark.parametrize("factory", [vit_tiny, gpt_tiny])
    def test_provisioned_cycle_charges_what_a_protected_one_does(self, factory):
        """Sealed weights from the server take the enclave space a local
        protect does, parameter-free protected sublayers (softmax) included."""
        model = factory(num_classes=6, seed=11)
        policy = PeltaPolicy(model.layout())
        protected = policy.layers_for_cycle(0)
        weights = [w if i in protected else {} for i, w in enumerate(model.get_weights(), 1)]
        iopath = TrustedIOPath()
        shielded = ShieldedModel(model, policy, batch_size=BATCH)
        shielded.begin_cycle(sealed_weights=iopath.seal(weights), iopath=iopath)
        x, y = _batch(model, seed=3)
        shielded.train_step(x, y, lr=LR)
        record = shielded.end_cycle(restore=False)
        expected = CostModel(batch_size=BATCH).tee_memory_bytes(model, protected)
        assert record.peak_tee_bytes == expected


class TestLeakageView:
    def test_unprotected_sublayers_leak_protected_do_not(self):
        model = vit_tiny(num_classes=6, seed=11)
        policy = PeltaPolicy(model.layout())
        x, y = _batch(model, seed=3)
        (record,), _ = _train_shielded(model, policy, x, y, cycles=1)
        protected = policy.layers_for_cycle(0)
        assert record.protected == protected
        # every parameterised unprotected layer's gradients are visible;
        # protected sublayers recorded nothing
        for index in range(1, model.num_layers + 1):
            recorded = record.gradients[index - 1]
            if index in protected:
                assert not recorded
            elif model.layer(index).params:
                assert set(recorded) == set(model.layer(index).params)
