"""Tests for the autodiff graph plumbing (Tensor, backward, grad)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad


class TestTensorBasics:
    def test_wraps_data_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)
        assert t.size == 3

    def test_item_on_scalar(self):
        assert Tensor(2.5).item() == 2.5

    def test_repr_mentions_shape_and_name(self):
        t = Tensor(np.zeros((2, 3)), name="weights")
        assert "(2, 3)" in repr(t)
        assert "weights" in repr(t)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert b._grad_fn is None and not b._parents
        assert not b.requires_grad

    def test_identity_hash_semantics(self):
        a = Tensor([1.0])
        b = Tensor([1.0])
        assert a == a
        assert a != b
        assert len({a, b}) == 2


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x * 3.0
        y.backward()
        assert x.grad.data[0] == pytest.approx(12.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert x.grad.data[0] == pytest.approx(5.0)

    def test_nonscalar_backward_requires_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="non-scalar"):
            (x * 2.0).backward()

    def test_seed_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="seed gradient shape"):
            (x * 2.0).backward(Tensor(np.ones(3)))

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a + b).sum().backward()
        assert x.grad.data[0] == pytest.approx(5.0)

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        s = x * x  # used twice below
        y = (s + s).sum()
        y.backward()
        assert x.grad.data[0] == pytest.approx(8.0)


class TestGradFunction:
    def test_returns_tuple_aligned_with_inputs(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = (a * b).sum()
        ga, gb = grad(out, [a, b])
        assert ga.data[0] == 2.0
        assert gb.data[0] == 1.0

    def test_unused_input_raises_without_flag(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="not reachable"):
            grad((a * 3.0).sum(), [b])

    def test_allow_unused_returns_none(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (ga, gb) = grad((a * 3.0).sum(), [a, b], allow_unused=True)
        assert gb is None
        assert ga.data[0] == 3.0

    def test_does_not_touch_grad_attribute(self):
        a = Tensor([1.0], requires_grad=True)
        grad((a * 2.0).sum(), [a])
        assert a.grad is None

    def test_create_graph_enables_second_order(self):
        x = Tensor([3.0], requires_grad=True)
        y = (x * x * x).sum()  # y = x^3, y' = 3x^2, y'' = 6x
        (g1,) = grad(y, [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        assert g2.data[0] == pytest.approx(18.0)

    def test_without_create_graph_gradients_are_detached(self):
        x = Tensor([3.0], requires_grad=True)
        (g1,) = grad((x * x).sum(), [x])
        with pytest.raises(RuntimeError, match="not reachable"):
            grad(g1.sum(), [x])

    def test_explicit_grad_outputs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        (g,) = grad(y, [x], grad_outputs=Tensor([1.0, 10.0]))
        np.testing.assert_allclose(g.data, [2.0, 20.0])
