"""Property suite: graph-executed training is bitwise-identical to eager.

Every assertion here is exact (``np.array_equal``, not allclose): the graph
VM replays the same numpy kernels on the same bits in the same order, so
compiled execution must agree with eager execution bit for bit — across the
model zoo, under fused conv, through double-backward traces, and between
batched and sequential client execution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import functional as F
from repro.graph.vm import VM, BatchedVM, compile_model_step, trace_callable
from repro.nn import SGD, alexnet, lenet5, mlp, one_hot
from repro.obs import fresh

pytestmark = pytest.mark.property

settings.register_profile("graph", max_examples=12, deadline=None)
settings.load_profile("graph")


def _train_eager(model, x, y, lr, steps):
    params = [p for layer in model.layers for p in layer.parameters()]
    optimizer = SGD(params, lr=lr)
    losses = []
    for _ in range(steps):
        loss, grads = model.loss_and_gradients(x, y)
        flat = [
            grads[li][key]
            for li, layer in enumerate(model.layers)
            for key in sorted(layer.params)
        ]
        optimizer.step(flat)
        losses.append(float(loss.item()))
    return losses


def _train_compiled(model, x, y, lr, steps):
    step = compile_model_step(model, x, y)
    vm = step.make_vm()
    losses = []
    for _ in range(steps):
        loss, grads = step.run_step(vm, model, x, y)
        for (li, name), g in zip(step.param_index, grads):
            param = model.layers[li].params[name]
            param.data = param.data - lr * g
        losses.append(loss)
    return losses


def _assert_same_training(factory, x, y, steps=3, lr=0.05):
    with fresh():
        eager_model = factory()
        compiled_model = factory()
        eager_losses = _train_eager(eager_model, x, y, lr, steps)
        compiled_losses = _train_compiled(compiled_model, x, y, lr, steps)
        assert eager_losses == compiled_losses
        for a, b in zip(
            eager_model.get_weights(), compiled_model.get_weights()
        ):
            assert set(a) == set(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])


class TestModelZooEquivalence:
    @given(
        hidden=st.lists(st.integers(2, 24), min_size=1, max_size=3),
        batch=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_mlp_bitwise(self, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, 6))
        y = one_hot(rng.integers(0, 4, size=batch), 4)
        _assert_same_training(
            lambda: mlp(4, (6,), hidden=tuple(hidden), seed=seed), x, y
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_lenet5_fused_conv_bitwise(self, seed):
        assert F._USE_FUSED_CONV  # fused conv is the traced default
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3, 16, 16))
        y = one_hot(rng.integers(0, 5, size=4), 5)
        _assert_same_training(
            lambda: lenet5(
                num_classes=5, input_shape=(3, 16, 16), seed=seed, scale=0.5
            ),
            x,
            y,
            steps=2,
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=2, deadline=None)
    def test_lenet5_composed_conv_bitwise(self, seed):
        previous = F.set_fused_conv(False)
        try:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2, 3, 16, 16))
            y = one_hot(rng.integers(0, 5, size=2), 5)
            _assert_same_training(
                lambda: lenet5(
                    num_classes=5, input_shape=(3, 16, 16), seed=seed, scale=0.5
                ),
                x,
                y,
                steps=1,
            )
        finally:
            F.set_fused_conv(previous)

    def test_alexnet_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 16, 16))
        y = one_hot(rng.integers(0, 4, size=2), 4)
        _assert_same_training(
            lambda: alexnet(
                num_classes=4, input_shape=(3, 16, 16), seed=0, scale=0.05
            ),
            x,
            y,
            steps=1,
        )


class TestShieldedCompiledSteps:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_compile_steps_flag_is_bitwise_neutral(self, seed):
        from repro.core.shielded import ShieldedModel

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 6))
        y = one_hot(rng.integers(0, 4, size=4), 4)
        finals = {}
        for compiled in (False, True):
            with fresh():
                shielded = ShieldedModel(
                    mlp(4, (6,), hidden=(8, 5), seed=seed),
                    batch_size=4,
                    compile_steps=compiled,
                )
                losses = []
                for cycle in range(2):
                    shielded.begin_cycle(cycle=cycle)
                    for _ in range(2):
                        losses.append(shielded.train_step(x, y, lr=0.05))
                    shielded.end_cycle()
                finals[compiled] = (losses, shielded.model.get_weights())
        assert finals[False][0] == finals[True][0]
        for a, b in zip(finals[False][1], finals[True][1]):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])


class TestDoubleBackward:
    @given(seed=st.integers(0, 2**16))
    def test_traced_second_order_matches_eager(self, seed):
        from repro.autodiff.ops import mul
        from repro.autodiff.tensor import grad

        def second_order(x_t):
            y = mul(mul(x_t, x_t), x_t).sum()
            (g1,) = grad(y, [x_t], create_graph=True)
            (g2,) = grad(g1.sum(), [x_t])
            return g2

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5,))
        program = trace_callable(second_order, [np.zeros(5)])
        traced = VM(program).run([x])[0]
        from repro.autodiff.tensor import Tensor

        x_t = Tensor(x.copy(), requires_grad=True)
        eager = second_order(x_t).data
        np.testing.assert_array_equal(traced, eager)


class TestBatchedExecution:
    @given(
        width=st.integers(1, 40),
        batch=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_batched_rows_equal_sequential_runs(self, width, batch, seed):
        from repro.autodiff.ops import add, mul, sub

        def delta(global_flat, noise):
            return add(mul(sub(global_flat, noise), 0.2), mul(noise, 0.05))

        program = trace_callable(delta, [np.zeros(width)] * 2)
        rng = np.random.default_rng(seed)
        global_flat = rng.normal(size=(width,))
        noise = rng.normal(size=(batch, width))

        batched = BatchedVM(program, [1]).run([global_flat, noise])[0]
        assert batched.shape == (batch, width)
        vm = VM(program)
        for row in range(batch):
            expected = vm.run([global_flat, noise[row]])[0]
            np.testing.assert_array_equal(batched[row], expected)

    def test_short_final_chunk_needs_no_padding(self):
        from repro.autodiff.ops import mul

        program = trace_callable(lambda n: mul(n, 3.0), [np.zeros(7)])
        bvm = BatchedVM(program, [0])
        full = bvm.run([np.ones((8, 7))])[0]
        short = bvm.run([np.ones((3, 7))])[0]
        assert full.shape == (8, 7) and short.shape == (3, 7)
        np.testing.assert_array_equal(short, np.full((3, 7), 3.0))
