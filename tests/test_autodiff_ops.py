"""Gradcheck every primitive op against finite differences."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, grad
from repro.autodiff import ops


def t(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(size=shape) * scale)


class TestElementwise:
    def test_add(self):
        check_gradients(lambda a, b: (a + b).sum(), [t((3, 4)), t((3, 4), 1)])

    def test_add_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), [t((3, 4)), t((4,), 1)])

    def test_sub(self):
        check_gradients(lambda a, b: (a - b * 2.0).sum(), [t((2, 3)), t((2, 3), 1)])

    def test_mul(self):
        check_gradients(lambda a, b: (a * b).sum(), [t((3,)), t((3,), 1)])

    def test_mul_broadcast_scalar_tensor(self):
        check_gradients(lambda a, b: (a * b).sum(), [t((2, 2)), t((), 1)])

    def test_div(self):
        b = Tensor(np.abs(np.random.default_rng(1).normal(size=(3,))) + 1.0)
        check_gradients(lambda a, b: (a / b).sum(), [t((3,)), b])

    def test_neg(self):
        check_gradients(lambda a: (-a * 3.0).sum(), [t((4,))])

    def test_pow(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(3,))) + 0.5)
        check_gradients(lambda a: (a ** 3).sum(), [a])

    def test_exp(self):
        check_gradients(lambda a: a.exp().sum(), [t((3,), scale=0.5)])

    def test_log(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(4,))) + 0.5)
        check_gradients(lambda a: a.log().sum(), [a])



class TestNonlinearities:
    def test_relu(self):
        a = Tensor(np.array([1.0, -1.0, 0.5, -0.2]))
        check_gradients(lambda a: (ops.relu(a) * 2.0).sum(), [a])

    def test_sigmoid(self):
        check_gradients(lambda a: ops.sigmoid(a).sum(), [t((5,))])

    def test_tanh(self):
        check_gradients(lambda a: (ops.tanh(a) ** 2).sum(), [t((5,))])

    def test_sigmoid_second_order(self):
        x = Tensor([0.3], requires_grad=True)
        y = ops.sigmoid(x).sum()
        (g1,) = grad(y, [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        s = 1 / (1 + np.exp(-0.3))
        expected = s * (1 - s) * (1 - 2 * s)
        assert g2.data[0] == pytest.approx(expected, rel=1e-6)

    def test_exp_second_order(self):
        x = Tensor([0.3, -1.2], requires_grad=True)
        (g1,) = grad(ops.exp(x).sum(), [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        np.testing.assert_allclose(g2.data, np.exp([0.3, -1.2]), rtol=1e-12)

    def test_tanh_second_order(self):
        x = Tensor([0.3, -1.2], requires_grad=True)
        (g1,) = grad(ops.tanh(x).sum(), [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        th = np.tanh([0.3, -1.2])
        np.testing.assert_allclose(g2.data, -2 * th * (1 - th**2), rtol=1e-12)

    def test_second_order_when_the_caller_keeps_only_the_loss(self):
        # exp, sigmoid and tanh hold their own outputs weakly; the graph
        # must keep them alive for both passes once nothing else names them.
        def loss_of(x):
            return (ops.exp(x) + ops.sigmoid(x) + ops.tanh(x)).sum()

        values = np.array([0.3, -1.2, 0.8])
        x = Tensor(values, requires_grad=True)
        loss = loss_of(x)
        (g1,) = grad(loss, [x], create_graph=True)
        del loss
        (g2,) = grad(g1.sum(), [x])
        s, th = 1 / (1 + np.exp(-values)), np.tanh(values)
        expected = np.exp(values) + s * (1 - s) * (1 - 2 * s) - 2 * th * (1 - th**2)
        np.testing.assert_allclose(g2.data, expected, rtol=1e-12)

    def test_constant_input_yields_plain_tensor(self):
        out = ops.sigmoid(Tensor([0.0]))
        assert out._grad_fn is None and not out._parents


class TestShapes:
    def test_reshape(self):
        check_gradients(lambda a: (a.reshape(6) * 2.0).sum(), [t((2, 3))])

    def test_transpose_default(self):
        check_gradients(lambda a: (a.transpose() ** 2).sum(), [t((2, 3))])

    def test_transpose_axes(self):
        check_gradients(
            lambda a: (a.transpose((1, 2, 0)) ** 2).sum(), [t((2, 3, 4))]
        )

    def test_broadcast_to(self):
        check_gradients(
            lambda a: (ops.broadcast_to(a, (3, 4)) ** 2).sum(), [t((4,))]
        )

    def test_getitem_slice(self):
        check_gradients(lambda a: (a[1:, :2] ** 2).sum(), [t((3, 4))])

    def test_getitem_int(self):
        check_gradients(lambda a: (a[0] ** 2).sum(), [t((3, 4))])

    def test_pad2d(self):
        check_gradients(lambda a: (ops.pad2d(a, 1) ** 2).sum(), [t((1, 2, 3, 3))])

    def test_pad2d_zero_is_noop(self):
        a = t((1, 1, 2, 2))
        assert ops.pad2d(a, 0) is a

    def test_pad2d_rejects_non4d(self):
        with pytest.raises(ValueError, match="4-D"):
            ops.pad2d(t((2, 3)), 1)


class TestReductions:
    def test_sum_axis(self):
        check_gradients(lambda a: (a.sum(axis=1) ** 2).sum(), [t((2, 3))])

    def test_sum_keepdims(self):
        check_gradients(
            lambda a: (a.sum(axis=0, keepdims=True) ** 2).sum(), [t((2, 3))]
        )

    def test_sum_multiple_axes(self):
        check_gradients(lambda a: (a.sum(axis=(0, 2)) ** 2).sum(), [t((2, 3, 4))])

    def test_mean(self):
        check_gradients(lambda a: (a.mean(axis=1) ** 2).sum(), [t((3, 4))])

    def test_mean_matches_numpy(self):
        a = t((3, 4))
        np.testing.assert_allclose(a.mean(axis=0).data, a.data.mean(axis=0))


class TestMatmul:
    def test_matmul(self):
        check_gradients(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4, 2), 1)])

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            ops.matmul(t((3,)), t((3, 2)))

    def test_matmul_second_order(self):
        # f(A) = sum((A @ B)^2); grad wrt A is 2 (A@B) B^T, linear in A,
        # so the second derivative through a probe direction is constant.
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = ((a @ b) ** 2).sum()
        (g1,) = grad(out, [a], create_graph=True)
        (g2,) = grad((g1 * g1).sum(), [a])
        assert g2.shape == (2, 2)


class TestConvBuildingBlocks:
    def test_im2col_gradient(self):
        check_gradients(
            lambda a: (ops.im2col(a, (2, 2), 1, 0) ** 2).sum(), [t((1, 2, 4, 4))]
        )

    def test_im2col_col2im_adjoint(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        cols_shape = ops.im2col(Tensor(x), (3, 3), 2, 1).shape
        y = rng.normal(size=cols_shape)
        lhs = (ops.im2col(Tensor(x), (3, 3), 2, 1).data * y).sum()
        rhs = (ops.col2im(Tensor(y), x.shape, (3, 3), 2, 1).data * x).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_gradient(self):
        cols = t((1, 8, 9))
        check_gradients(
            lambda c: (ops.col2im(c, (1, 2, 4, 4), (2, 2), 1, 0) ** 2).sum(), [cols]
        )

    def test_invalid_conv_size_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            ops.im2col(t((1, 1, 2, 2)), (5, 5), 1, 0)


class TestMaxPool:
    def test_forward_matches_manual(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.maxpool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_gradient(self):
        check_gradients(lambda a: (ops.maxpool2d(a, 2) ** 2).sum(), [t((1, 2, 4, 4))])

    def test_indivisible_raises(self):
        with pytest.raises(ValueError, match="divisible"):
            ops.maxpool2d(t((1, 1, 5, 4)), 2)
