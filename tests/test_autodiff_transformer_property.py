"""Property suite: gradients of the attention primitives are correct.

Hypothesis-driven gradcheck (central differences vs reverse-mode) for the
double-backward-safe transformer ops — softmax over the last axis,
layernorm, GELU, batched matmul and the fused attention-weights composite —
plus explicit double-backward checks, since DRIA differentiates through
these gradients.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, grad, ops
from repro.autodiff import functional as F
from repro.autodiff.gradcheck import check_gradients

pytestmark = pytest.mark.property


def arrays(shape, lo=-2.0, hi=2.0):
    return hnp.arrays(
        np.float64,
        shape,
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


class TestGradcheck:
    @given(arrays((2, 3, 4)))
    def test_softmax_lastaxis(self, a):
        x = Tensor(a, requires_grad=True)
        check_gradients(lambda t: ops.sum_(F.softmax_lastaxis(t)), [x])

    @given(arrays((3, 5)))
    def test_layer_norm(self, a):
        x = Tensor(a, requires_grad=True)
        w = Tensor(np.linspace(0.5, 1.5, 5), requires_grad=True)
        b = Tensor(np.linspace(-0.2, 0.2, 5), requires_grad=True)
        check_gradients(
            lambda t, wt, bt: ops.sum_(F.layer_norm(t, wt, bt)), [x, w, b],
            atol=1e-3, rtol=1e-3,
        )

    @given(arrays((2, 4)))
    def test_gelu(self, a):
        x = Tensor(a, requires_grad=True)
        check_gradients(lambda t: ops.sum_(F.gelu(t)), [x])

    @given(arrays((2, 3, 2)), arrays((2, 2, 4)))
    def test_bmm(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        check_gradients(
            lambda x, y: ops.sum_(ops.bmm(x, y)), [ta, tb]
        )

    @given(arrays((1, 3, 4)), arrays((1, 3, 4)))
    def test_attention_weights(self, q, k):
        tq = Tensor(q, requires_grad=True)
        tk = Tensor(k, requires_grad=True)
        check_gradients(
            lambda a, b: ops.sum_(ops.mul(F.attention_weights(a, b), 0.5)),
            [tq, tk],
            atol=1e-3, rtol=1e-3,
        )


class TestDoubleBackward:
    """grad-of-grad works through every attention op (DRIA's requirement)."""

    def _double_grad_matches_numeric(self, fn, x0, eps=1e-5, atol=1e-3):
        x = Tensor(x0, requires_grad=True)
        (g,) = grad(fn(x), [x], create_graph=True)
        (gg,) = grad(ops.sum_(ops.mul(g, g)), [x])
        # numeric derivative of sum(g^2) via central differences
        numeric = np.zeros_like(x0)
        flat = numeric.reshape(-1)
        for i in range(flat.size):
            for sign in (1.0, -1.0):
                bumped = x0.copy().reshape(-1)
                bumped[i] += sign * eps
                xb = Tensor(bumped.reshape(x0.shape), requires_grad=True)
                (gb,) = grad(fn(xb), [xb])
                flat[i] += sign * float((gb.data ** 2).sum()) / (2 * eps)
        np.testing.assert_allclose(gg.data, numeric, atol=atol, rtol=1e-2)

    def test_softmax_lastaxis_double(self):
        rng = np.random.default_rng(0)
        self._double_grad_matches_numeric(
            lambda t: ops.sum_(ops.mul(F.softmax_lastaxis(t), t)),
            rng.standard_normal((2, 2, 3)),
        )

    def test_layer_norm_double(self):
        rng = np.random.default_rng(1)
        self._double_grad_matches_numeric(
            lambda t: ops.sum_(ops.mul(F.layer_norm(t), t)),
            rng.standard_normal((2, 4)),
        )

    def test_gelu_double(self):
        rng = np.random.default_rng(2)
        self._double_grad_matches_numeric(
            lambda t: ops.sum_(F.gelu(t)), rng.standard_normal((3, 3))
        )

    def test_attention_double(self):
        rng = np.random.default_rng(3)

        def fn(t):
            return ops.sum_(ops.mul(F.attention_weights(t, t), 0.25))

        self._double_grad_matches_numeric(
            fn, 0.5 * rng.standard_normal((1, 2, 3))
        )

    def test_vit_gradients_of_gradients(self):
        """End to end: double backward through a whole transformer loss."""
        from repro.nn import one_hot, vit_tiny

        model = vit_tiny(num_classes=4, dim=8, num_blocks=1, seed=0)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, *model.input_shape))
        y = one_hot(rng.integers(0, 4, size=2), 4)
        loss, grads = model.loss_and_gradients(x, y, create_graph=True)
        flat = [g for gd in grads for g in gd.values()]
        norm = ops.sum_(ops.mul(flat[0], flat[0]))
        for g in flat[1:]:
            norm = ops.add(norm, ops.sum_(ops.mul(g, g)))
        params = [p for layer in model.layers for p in layer.params.values()]
        second = grad(norm, params, allow_unused=True)
        assert any(
            s is not None and np.isfinite(s.data).all() and np.abs(s.data).sum() > 0
            for s in second
        )
