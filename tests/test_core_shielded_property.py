"""Property-based tests of the shielded trainer's core invariants.

For ANY protected set, shielded training must (a) compute exactly what
unprotected training computes and (b) leak exactly the complement of the
protected set. These are the two properties everything else rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NoProtection, ShieldedModel, StaticPolicy
from repro.nn import mlp, one_hot

pytestmark = pytest.mark.property

settings.register_profile("shielded", max_examples=12, deadline=None)
settings.load_profile("shielded")

LAYERS = 4


def build(protected, seed):
    model = mlp(num_classes=3, input_shape=(5,), hidden=(6, 5, 4), seed=seed)
    policy = (
        StaticPolicy(model, [f"L{i}" for i in sorted(protected)], max_slices=None)
        if protected
        else NoProtection(model)
    )
    return model, ShieldedModel(model, policy, batch_size=4)


def batch(seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 5)), one_hot(rng.integers(0, 3, 4), 3)


protected_sets = st.sets(st.integers(1, LAYERS), max_size=LAYERS)


@given(protected_sets, st.integers(0, 10))
def test_trajectory_equals_unprotected(protected, seed):
    x, y = batch(seed)
    ref_model, ref = build(set(), seed)
    ref.begin_cycle()
    ref_losses = [ref.train_step(x, y, lr=0.3) for _ in range(3)]
    ref.end_cycle()

    model, shielded = build(protected, seed)
    shielded.begin_cycle()
    losses = [shielded.train_step(x, y, lr=0.3) for _ in range(3)]
    shielded.end_cycle()

    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12)
    for index in range(1, LAYERS + 1):
        ref_weights = ref_model.layer(index).get_weights()
        got = model.layer(index).get_weights()
        for key in ref_weights:
            np.testing.assert_allclose(got[key], ref_weights[key], rtol=1e-12)


@given(protected_sets, st.integers(0, 10))
def test_leakage_is_exact_complement(protected, seed):
    x, y = batch(seed)
    _, shielded = build(protected, seed)
    shielded.begin_cycle()
    shielded.train_step(x, y, lr=0.2)
    leak = shielded.end_cycle()
    for index, grads in enumerate(leak.mean_gradients(), start=1):
        if index in protected:
            assert grads is None
        else:
            assert grads is not None


@given(protected_sets)
def test_pool_returns_to_zero(protected):
    _, shielded = build(protected, 0)
    shielded.begin_cycle()
    shielded.end_cycle()
    assert shielded.pool.used_bytes == 0
