"""Tests for leakage views (the attacker-facing record)."""

import numpy as np
import pytest

from repro.core import CycleLeakage, NoProtection, ShieldedModel, StaticPolicy
from repro.nn import mlp, one_hot


def run_cycle(protected, steps=2, lr=0.4, seed=0):
    model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=seed)
    policy = (
        StaticPolicy(model, [f"L{i}" for i in protected], max_slices=None)
        if protected
        else NoProtection(model)
    )
    shielded = ShieldedModel(model, policy, batch_size=6)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 6))
    y = one_hot(rng.integers(0, 4, 6), 4)
    shielded.begin_cycle()
    for _ in range(steps):
        shielded.train_step(x, y, lr=lr)
    return model, shielded.end_cycle()


class TestRecording:
    def test_recording_protected_gradient_asserts(self):
        leak = CycleLeakage(cycle=0, protected=frozenset({2}), num_layers=3)
        with pytest.raises(AssertionError):
            leak.record_gradient(2, "weight", np.zeros(3))

    def test_gradients_per_step_accumulate(self):
        _, leak = run_cycle([], steps=3)
        assert len(leak.gradients[0]["weight"]) == 3

    def test_mean_gradient_is_average(self):
        _, leak = run_cycle([], steps=2)
        manual = np.mean(leak.gradients[0]["weight"], axis=0)
        np.testing.assert_allclose(leak.mean_gradients()[0]["weight"], manual)


class TestFlaw1WeightDiffing:
    def test_diff_equals_summed_step_gradients(self):
        """The paper's formula (2): dW = (W_t - W_{t+1}) / lambda."""
        _, leak = run_cycle([], steps=3, lr=0.4)
        diffs = leak.weight_diff_gradients(lr=0.4)
        summed = sum(leak.gradients[0]["weight"])
        np.testing.assert_allclose(diffs[0]["weight"], summed, atol=1e-10)

    def test_protected_layers_yield_none(self):
        _, leak = run_cycle([2])
        diffs = leak.weight_diff_gradients(lr=0.4)
        assert diffs[1] is None
        assert diffs[0] is not None

    def test_nonpositive_lr_rejected(self):
        _, leak = run_cycle([])
        with pytest.raises(ValueError):
            leak.weight_diff_gradients(lr=0)


class TestViews:
    def test_feature_vector_excludes_protected(self):
        _, full = run_cycle([])
        _, partial = run_cycle([2])
        assert partial.feature_vector().size < full.feature_vector().size

    def test_feature_vector_empty_when_all_protected(self):
        _, leak = run_cycle([1, 2, 3])
        assert leak.feature_vector().size == 0

    def test_feature_vector_bias_toggle(self):
        _, leak = run_cycle([])
        with_bias = leak.feature_vector(include_bias=True)
        without = leak.feature_vector(include_bias=False)
        assert with_bias.size > without.size
