"""Tests for composite functions (linear, conv2d, softmax, losses)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, functional as F, grad, ops


def t(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(size=shape) * scale)


class TestLinear:
    def test_matches_numpy(self):
        x, w, b = t((4, 3)), t((5, 3), 1), t((5,), 2)
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)

    def test_gradcheck(self):
        check_gradients(
            lambda x, w, b: (F.linear(x, w, b) ** 2).sum(),
            [t((3, 4)), t((2, 4), 1), t((2,), 2)],
        )

    def test_no_bias(self):
        out = F.linear(t((2, 3)), t((4, 3), 1))
        assert out.shape == (2, 4)


class TestConv2d:
    def test_matches_direct_convolution(self):
        """Cross-check the im2col implementation against a naive loop."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        stride, pad = 2, 1
        out = F.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data

        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (5 + 2 * pad - 3) // stride + 1
        expected = np.zeros((2, 3, oh, oh))
        for n in range(2):
            for f in range(3):
                for i in range(oh):
                    for j in range(oh):
                        patch = xp[n, :, i * stride : i * stride + 3, j * stride : j * stride + 3]
                        expected[n, f, i, j] = (patch * w[f]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_bias_added_per_channel(self):
        x, w = t((1, 1, 4, 4)), t((2, 1, 3, 3), 1)
        b = Tensor(np.array([10.0, -10.0]))
        with_bias = F.conv2d(x, w, b, pad=1).data
        without = F.conv2d(x, w, pad=1).data
        np.testing.assert_allclose(with_bias[:, 0] - without[:, 0], 10.0)
        np.testing.assert_allclose(with_bias[:, 1] - without[:, 1], -10.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(t((1, 3, 4, 4)), t((2, 4, 3, 3)))

    def test_gradcheck(self):
        check_gradients(
            lambda x, w: (F.conv2d(x, w, stride=1, pad=1) ** 2).sum(),
            [t((1, 2, 4, 4)), t((3, 2, 3, 3), 1)],
        )

    def test_double_backward_matches_numeric(self):
        """d/dx ||dL/dw||^2 — the DRIA code path — against finite differences."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)

        def gw_sq(x_t, w_t):
            out = (F.conv2d(x_t, w_t, pad=1) ** 2).mean()
            (gw,) = grad(out, [w_t], create_graph=True)
            return (gw ** 2).sum()

        (gx,) = grad(gw_sq(x, w), [x])
        eps = 1e-5
        numeric = np.zeros_like(x.data)
        for index in np.ndindex(x.shape):
            vals = []
            for sign in (eps, -eps):
                xd = x.data.copy()
                xd[index] += sign
                vals.append(
                    gw_sq(
                        Tensor(xd, requires_grad=True),
                        Tensor(w.data, requires_grad=True),
                    ).item()
                )
            numeric[index] = (vals[0] - vals[1]) / (2 * eps)
        np.testing.assert_allclose(gx.data, numeric, atol=1e-5)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(t((4, 7)))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistent_with_softmax(self):
        x = t((3, 5))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-10
        )

    def test_cross_entropy_value(self):
        logits = Tensor([[0.0, 0.0]])
        targets = np.array([[1.0, 0.0]])
        assert F.cross_entropy(logits, Tensor(targets)).item() == pytest.approx(
            np.log(2.0)
        )

    def test_cross_entropy_gradient_is_softmax_minus_target(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        targets = np.eye(3)[[0, 1, 2, 0]]
        loss = F.cross_entropy(logits, Tensor(targets))
        (g,) = grad(loss, [logits])
        expected = (F.softmax(logits).data - targets) / 4
        np.testing.assert_allclose(g.data, expected, rtol=1e-8)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError, match="must match"):
            F.cross_entropy(t((2, 3)), Tensor(np.zeros((2, 4))))

    def test_cross_entropy_gradcheck(self):
        targets = np.eye(4)[[1, 3]]
        check_gradients(
            lambda x: F.cross_entropy(x, Tensor(targets)), [t((2, 4))]
        )


class TestFlattenAndPool:
    def test_flatten(self):
        out = F.flatten(t((2, 3, 4, 5)))
        assert out.shape == (2, 60)

    def test_max_pool_shape(self):
        assert ops.maxpool2d(t((1, 3, 8, 8)), 2).shape == (1, 3, 4, 4)
