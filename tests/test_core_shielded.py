"""Tests for the shielded (enclave-partitioned) trainer — GradSec itself."""

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F, grad
from repro.core import (
    DynamicPolicy,
    GradSecTA,
    NoProtection,
    ShieldedModel,
    StaticPolicy,
    policy_from_spec,
)
from repro.nn import lenet5, mlp, one_hot
from repro.tee import (
    CostModel,
    SecureMemoryExhausted,
    SecureMemoryPool,
    SecureMonitor,
    TEEError,
    TrustedIOPath,
)


# The layout of every model make_shielded builds (three dense layers L1..L3).
LAYOUT = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5)).layout()


def tiny_batch(rng, n=6, classes=4):
    x = rng.normal(size=(n, 6))
    y = one_hot(rng.integers(0, classes, n), classes)
    return x, y


def make_shielded(policy=None, seed=0, **kwargs):
    model = mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=seed)
    return model, ShieldedModel(model, policy or NoProtection(model), batch_size=6, **kwargs)


def holds_array(value):
    """Whether an SMC reply carries an ndarray anywhere inside it."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(holds_array(v) for v in value)
    return isinstance(value, np.ndarray)


class TestEquivalence:
    """Protected training must compute exactly what unprotected does."""

    @pytest.mark.parametrize("protected", [(1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3)])
    def test_trajectory_identical_to_unprotected(self, rng, protected):
        x, y = tiny_batch(rng)
        ref_model, ref = make_shielded(NoProtection(LAYOUT), seed=1)
        ref.begin_cycle()
        ref_losses = [ref.train_step(x, y, lr=0.3) for _ in range(3)]
        ref.end_cycle()

        model, shielded = make_shielded(
            StaticPolicy(LAYOUT, [f"L{i}" for i in protected], max_slices=None), seed=1
        )
        shielded.begin_cycle()
        losses = [shielded.train_step(x, y, lr=0.3) for _ in range(3)]
        shielded.end_cycle()

        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12)
        for i in range(1, 4):
            for key, value in ref_model.layer(i).get_weights().items():
                np.testing.assert_allclose(
                    model.layer(i).get_weights()[key], value, rtol=1e-12
                )

    def test_lenet_equivalence_with_nonconsecutive_protection(self, rng):
        x = rng.normal(size=(4, 3, 32, 32))
        y = one_hot(rng.integers(0, 5, 4), 5)
        ref = lenet5(num_classes=5, seed=2, scale=0.5)
        sm_ref = ShieldedModel(ref, NoProtection(ref), batch_size=4)
        sm_ref.begin_cycle()
        loss_ref = sm_ref.train_step(x, y, lr=0.2)
        sm_ref.end_cycle()

        model = lenet5(num_classes=5, seed=2, scale=0.5)
        sm = ShieldedModel(model, StaticPolicy(model, ["L2", "L5"]), batch_size=4)
        sm.begin_cycle()
        loss = sm.train_step(x, y, lr=0.2)
        sm.end_cycle()
        assert loss == pytest.approx(loss_ref, rel=1e-12)


class TestConfidentiality:
    def test_normal_world_weights_scrubbed_during_cycle(self, rng):
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        original = model.layer(2).get_weights()["weight"].copy()
        shielded.begin_cycle()
        assert np.all(model.layer(2).params["weight"].data == 0)
        shielded.end_cycle()
        # Restored (and untrained, so identical).
        np.testing.assert_array_equal(
            model.layer(2).get_weights()["weight"], original
        )

    def test_end_cycle_without_restore_keeps_scrubbed(self):
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        shielded.begin_cycle()
        shielded.end_cycle(restore=False)
        assert np.all(model.layer(2).params["weight"].data == 0)

    def test_leakage_never_contains_protected_gradients(self, rng):
        x, y = tiny_batch(rng)
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L1", "L3"]))
        shielded.begin_cycle()
        shielded.train_step(x, y)
        leak = shielded.end_cycle()
        grads = leak.mean_gradients()
        assert grads[0] is None
        assert grads[2] is None
        assert grads[1] is not None

    def test_weight_diffs_hidden_for_protected(self, rng):
        x, y = tiny_batch(rng)
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        shielded.begin_cycle()
        shielded.train_step(x, y, lr=0.5)
        leak = shielded.end_cycle()
        diffs = leak.weight_diff_gradients(lr=0.5)
        assert diffs[1] is None
        assert diffs[0] is not None

    def test_input_batch_gradient_never_leaves_the_enclave(self, rng, monkeypatch):
        """dX = W1^T * delta_1 is a function of protected values that no
        normal-world layer consumes: a run starting at layer 1 hands back
        nothing, and dropping it moves no weight bit."""
        x, y = tiny_batch(rng)
        ref_model, ref = make_shielded(NoProtection(LAYOUT), seed=1)
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L1"]), seed=1)
        returned = []
        smc = shielded.monitor.smc

        def spy(uuid, command, **kwargs):
            result = smc(uuid, command, **kwargs)
            if command == "backward_run":
                returned.append((kwargs["indices"], result))
            return result

        monkeypatch.setattr(shielded.monitor, "smc", spy)
        for trainer in (ref, shielded):
            trainer.begin_cycle()
            for _ in range(3):
                trainer.train_step(x, y, lr=0.3)
            trainer.end_cycle()
        assert [indices for indices, _ in returned] == [(1,)] * 3
        assert all(result is None for _, result in returned)
        for i in range(1, 4):
            for key, value in ref_model.layer(i).get_weights().items():
                assert np.array_equal(model.layer(i).get_weights()[key], value)

    @pytest.mark.parametrize("restore", [False, True])
    def test_release_hands_nothing_back_across_the_boundary(self, rng, restore):
        """``release`` replies to the normal world; the trained protected
        weights (minus the known start, over lr: the mean gradient) must not
        ride that reply — with ``restore`` they go into the model, nowhere else."""
        x = rng.normal(size=(4, 3, 32, 32))
        y = one_hot(rng.integers(0, 5, 4), 5)
        ref = lenet5(num_classes=5, seed=2, scale=0.5)
        trained = ShieldedModel(ref, NoProtection(ref), batch_size=4)
        trained.begin_cycle()
        trained.train_step(x, y, lr=0.2)
        trained.end_cycle()

        model = lenet5(num_classes=5, seed=2, scale=0.5)
        shielded = ShieldedModel(
            model, policy_from_spec("static:L2+L4", model.layout()), batch_size=4
        )
        shielded.begin_cycle()
        shielded.train_step(x, y, lr=0.2)
        reply = shielded.monitor.smc(shielded.ta.uuid, "release", restore=restore)
        assert not holds_array(reply)
        assert shielded.pool.used_bytes == 0
        for index in (2, 4):
            for key, value in ref.layer(index).get_weights().items():
                held = model.layer(index).get_weights()[key]
                if restore:
                    np.testing.assert_allclose(held, value, rtol=1e-12)
                else:
                    assert not held.any()

    def test_smc_calls_happen_only_when_protected(self, rng):
        x, y = tiny_batch(rng)
        _, unprotected = make_shielded(NoProtection(LAYOUT))
        unprotected.begin_cycle()
        unprotected.train_step(x, y)
        unprotected.end_cycle()
        assert unprotected.monitor.stats.calls == 0

        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        shielded.begin_cycle()
        shielded.train_step(x, y)
        shielded.end_cycle()
        # protect + forward + backward + release
        assert shielded.monitor.stats.calls == 4


def direct_ta(model, pool=None):
    """A GradSec TA reached only through its own secure monitor."""
    monitor = SecureMonitor()
    ta = GradSecTA(model, pool or SecureMemoryPool())
    monitor.install(ta)
    return lambda command, **params: monitor.smc(ta.uuid, command, **params)


def ree_step(model, smc, runs, x, y, lr):
    """The normal world's half of one partitioned SGD step, written out.

    Unprotected runs are differentiated here, layer by layer; protected runs
    are one ``forward_run`` each, then one ``backward_run`` each in reverse.
    """
    tapes, current = [], x
    for indices, protected in runs:
        if protected:
            current = smc("forward_run", indices=indices, x=current)
            tapes.append(None)
            continue
        inp = Tensor(current, requires_grad=indices[0] != 1)
        out = inp
        for index in indices:
            out = model.layer(index)(out)
        tapes.append((inp, out))
        current = out.data
    logits = Tensor(current, requires_grad=True)
    (gout,) = grad(F.cross_entropy(logits, Tensor(y)), [logits])
    gout = gout.data
    for (indices, protected), tape in zip(reversed(runs), reversed(tapes)):
        if protected:
            gout = smc("backward_run", indices=indices, gout=gout, lr=lr)
            continue
        inp, out = tape
        keys = [(i, name) for i in indices for name in sorted(model.layer(i).params)]
        params = [model.layer(i).params[name] for i, name in keys]
        wanted = [inp] if inp.requires_grad else []
        results = grad([out], wanted + params, grad_outputs=[Tensor(gout)])
        for (i, name), g in zip(keys, results[len(wanted):]):
            param = model.layer(i).params[name]
            param.data = param.data - lr * g.data
        gout = results[0].data if wanted else None


class TestTrustedApplicationDirect:
    """``GradSecTA`` driven through ``SecureMonitor.smc`` with no trainer."""

    RUNS = [((1,), False), ((2,), True), ((3,), False), ((4,), True), ((5,), False)]

    def test_protocol_matches_a_shielded_step_bit_for_bit(self, rng):
        x = rng.normal(size=(4, 3, 32, 32))
        y = one_hot(rng.integers(0, 5, 4), 5)
        ref = lenet5(num_classes=5, seed=2, scale=0.5)
        trainer = ShieldedModel(
            ref, policy_from_spec("static:L2+L4", ref.layout()), batch_size=4
        )
        trainer.begin_cycle()
        for _ in range(2):
            trainer.train_step(x, y, lr=0.2)
        trainer.end_cycle(restore=True)

        model = lenet5(num_classes=5, seed=2, scale=0.5)
        smc = direct_ta(model)
        iopath = TrustedIOPath()
        smc("protect", indices=(2, 4), batch_size=4)
        for _ in range(2):
            ree_step(model, smc, self.RUNS, x, y, lr=0.2)
        unsealed = iopath.unseal_remote(smc("export_weights", iopath=iopath))
        assert smc("release", restore=False) is None
        for index in (2, 4):
            assert not model.layer(index).params["weight"].data.any()
            expected = ref.layer(index).get_weights()
            assert set(unsealed[index - 1]) == set(expected)
            for key, value in expected.items():
                assert np.array_equal(unsealed[index - 1][key], value)
        for index in (1, 3, 5):
            for key, value in ref.layer(index).get_weights().items():
                assert np.array_equal(model.layer(index).get_weights()[key], value)

    def test_backward_without_forward_is_refused(self):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        smc = direct_ta(model)
        smc("protect", indices=(2, 4), batch_size=4)
        gout = np.zeros((4,) + model.layer(2).output_shape)
        with pytest.raises(TEEError, match="without a preceding forward_run"):
            smc("backward_run", indices=(2,), gout=gout, lr=0.1)

    def test_second_backward_of_a_run_is_refused(self, rng):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        smc = direct_ta(model)
        smc("protect", indices=(2, 4), batch_size=4)
        a1 = model.layer(1)(Tensor(rng.normal(size=(4, 3, 32, 32)))).data
        out = smc("forward_run", indices=(2,), x=a1)
        gin = smc("backward_run", indices=(2,), gout=np.ones_like(out), lr=0.1)
        assert gin.shape == a1.shape
        with pytest.raises(TEEError):
            smc("backward_run", indices=(2,), gout=np.ones_like(out), lr=0.1)

    def test_run_starting_at_layer_one_returns_no_input_gradient(self, rng):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        smc = direct_ta(model)
        smc("protect", indices=(1, 2), batch_size=4)
        out = smc("forward_run", indices=(1, 2), x=rng.normal(size=(4, 3, 32, 32)))
        assert smc("backward_run", indices=(1, 2), gout=np.ones_like(out), lr=0.1) is None

    def test_protecting_a_held_layer_again_is_refused(self):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        original = model.layer(2).get_weights()
        pool = SecureMemoryPool()
        smc = direct_ta(model, pool)
        smc("protect", indices=(2,), batch_size=4)
        held = pool.used_bytes
        with pytest.raises(TEEError, match="layer 2 is already protected"):
            smc("protect", indices=(2,), batch_size=4)
        assert pool.used_bytes == held
        smc("release", restore=True)
        assert pool.used_bytes == 0
        for key, value in original.items():
            assert np.array_equal(model.layer(2).params[key].data, value)

    def test_provisioning_a_held_layer_is_refused(self):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        weights = [{} for _ in range(model.num_layers)]
        weights[1] = model.layer(2).get_weights()
        pool, iopath = SecureMemoryPool(), TrustedIOPath()
        smc = direct_ta(model, pool)
        smc("protect", indices=(2,), batch_size=4)
        held = pool.used_bytes
        with pytest.raises(TEEError, match="layer 2 is already protected"):
            smc(
                "provision",
                protected=(2,),
                blob=iopath.seal(weights),
                iopath=iopath,
                batch_size=4,
            )
        assert pool.used_bytes == held

    def test_a_run_naming_an_unprotected_layer_is_refused(self, rng):
        model = lenet5(num_classes=5, seed=2, scale=0.5)
        before = model.layer(4).get_weights()
        smc = direct_ta(model)
        smc("protect", indices=(2,), batch_size=4)
        x = rng.normal(size=(4,) + model.layer(3).output_shape)
        gout = rng.normal(size=(4,) + model.layer(4).output_shape)
        with pytest.raises(TEEError, match="layer 4 is not protected"):
            smc("forward_run", indices=(4,), x=x)
        with pytest.raises(TEEError, match="layer 4 is not protected"):
            smc("backward_run", indices=(4,), gout=gout, lr=0.1)
        for key, value in before.items():
            assert np.array_equal(model.layer(4).params[key].data, value)


class TestMemoryAccounting:
    def test_peak_memory_recorded(self, rng):
        x, y = tiny_batch(rng)
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        shielded.begin_cycle()
        shielded.train_step(x, y)
        leak = shielded.end_cycle()
        assert leak.peak_tee_bytes > 0

    def test_memory_released_after_cycle(self, rng):
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L1", "L2", "L3"], max_slices=None))
        shielded.begin_cycle()
        assert shielded.pool.used_bytes > 0
        shielded.end_cycle()
        assert shielded.pool.used_bytes == 0

    def test_too_small_pool_raises(self):
        with pytest.raises(SecureMemoryExhausted):
            model, shielded = make_shielded(
                StaticPolicy(LAYOUT, ["L1"]), pool=SecureMemoryPool(64)
            )
            shielded.begin_cycle()

    def test_lenet_l2_l5_footprint_matches_cost_model(self, rng):
        model = lenet5(num_classes=100, seed=0)
        shielded = ShieldedModel(model, StaticPolicy(model, ["L2", "L5"]), batch_size=32)
        shielded.begin_cycle()
        expected = CostModel(batch_size=32).tee_memory_bytes(model, (2, 5))
        assert shielded.pool.used_bytes == expected
        shielded.end_cycle()


class TestDynamicCycles:
    def test_window_moves_across_cycles(self, rng):
        x, y = tiny_batch(rng)
        policy = DynamicPolicy(LAYOUT, 1, [0.4, 0.3, 0.3], seed=5)
        _, shielded = make_shielded(policy)
        seen = set()
        for cycle in range(12):
            protected = shielded.begin_cycle()
            seen.add(tuple(sorted(protected)))
            shielded.train_step(x, y)
            shielded.end_cycle()
        assert len(seen) > 1  # the window actually moved

    def test_cycle_override_synchronises(self):
        policy = DynamicPolicy(LAYOUT, 1, [0.4, 0.3, 0.3], seed=5)
        _, shielded = make_shielded(policy)
        expected = policy.layers_for_cycle(7)
        assert shielded.begin_cycle(cycle=7) == expected
        shielded.end_cycle()


class TestProtocolErrors:
    def test_double_begin_raises(self):
        _, shielded = make_shielded()
        shielded.begin_cycle()
        with pytest.raises(RuntimeError, match="begin_cycle"):
            shielded.begin_cycle()

    def test_train_outside_cycle_raises(self, rng):
        x, y = tiny_batch(rng)
        _, shielded = make_shielded()
        with pytest.raises(RuntimeError, match="outside"):
            shielded.train_step(x, y)

    def test_end_without_begin_raises(self):
        _, shielded = make_shielded()
        with pytest.raises(RuntimeError, match="without"):
            shielded.end_cycle()

    def test_policy_model_depth_mismatch(self):
        model = mlp(num_classes=4, input_shape=(6,), hidden=(8,), seed=0)
        with pytest.raises(ValueError, match="layers"):
            ShieldedModel(model, NoProtection(LAYOUT))

    def test_sealed_weights_require_iopath(self):
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L1"]))
        with pytest.raises(ValueError, match="iopath"):
            shielded.begin_cycle(sealed_weights=b"blob")


class TestExportUpdate:
    def test_export_splits_plain_and_sealed(self, rng):
        x, y = tiny_batch(rng)
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        iopath = TrustedIOPath()
        shielded.begin_cycle()
        shielded.train_step(x, y, lr=0.3)
        sealed, plain = shielded.export_update(iopath)
        shielded.end_cycle(restore=False)
        assert plain[1] == {}  # protected slot empty in the plain part
        assert plain[0]  # unprotected layers present
        unsealed = iopath.unseal_remote(sealed)
        assert unsealed[1]  # protected layer's weights inside the sealed blob
        assert unsealed[0] == {}

    def test_sealed_update_reflects_training(self, rng):
        x, y = tiny_batch(rng)
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]), seed=4)
        before = model.layer(2).get_weights()["weight"].copy()
        iopath = TrustedIOPath()
        shielded.begin_cycle()
        shielded.train_step(x, y, lr=0.5)
        sealed, _ = shielded.export_update(iopath)
        shielded.end_cycle(restore=False)
        after = iopath.unseal_remote(sealed)[1]["weight"]
        assert not np.allclose(after, before)

    def test_export_outside_cycle_raises(self):
        _, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]))
        with pytest.raises(RuntimeError, match="outside"):
            shielded.export_update(TrustedIOPath())


class TestProvisioning:
    def test_begin_cycle_with_sealed_weights(self, rng):
        x, y = tiny_batch(rng)
        model, shielded = make_shielded(StaticPolicy(LAYOUT, ["L2"]), seed=6)
        iopath = TrustedIOPath()
        fresh = np.full_like(model.layer(2).get_weights()["weight"], 0.123)
        sealed = iopath.seal([{}, {"weight": fresh, "bias": np.zeros(5)}, {}])
        shielded.begin_cycle(sealed_weights=sealed, iopath=iopath)
        shielded.train_step(x, y, lr=0.0)  # lr=0: no weight change
        out, _ = shielded.export_update(iopath)
        shielded.end_cycle(restore=False)
        np.testing.assert_allclose(iopath.unseal_remote(out)[1]["weight"], fresh)
