"""Property-based tests (hypothesis) for autodiff invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor, grad
from repro.autodiff import ops
from repro.autodiff.fused import conv2d_fused
from repro.autodiff.functional import conv2d_composed
from repro.autodiff.workspace import Workspace, get_workspace

pytestmark = pytest.mark.property


def arrays(shape):
    return hnp.arrays(
        np.float64,
        shape,
        elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )


@given(arrays((3, 4)), arrays((3, 4)))
def test_add_commutes(a, b):
    np.testing.assert_allclose(
        ops.add(Tensor(a), Tensor(b)).data, ops.add(Tensor(b), Tensor(a)).data
    )


@given(arrays((2, 3)), arrays((2, 3)), arrays((2, 3)))
def test_mul_distributes_over_add(a, b, c):
    left = ops.mul(Tensor(a), ops.add(Tensor(b), Tensor(c))).data
    right = ops.add(ops.mul(Tensor(a), Tensor(b)), ops.mul(Tensor(a), Tensor(c))).data
    np.testing.assert_allclose(left, right, atol=1e-12)


@given(arrays((4, 5)))
def test_transpose_is_involution(a):
    t = Tensor(a)
    np.testing.assert_allclose(t.transpose().transpose().data, a)


@given(arrays((2, 6)))
def test_reshape_roundtrip(a):
    t = Tensor(a)
    np.testing.assert_allclose(t.reshape((3, 4)).reshape((2, 6)).data, a)


@given(arrays((3, 4)))
def test_sum_of_parts_equals_total(a):
    t = Tensor(a)
    np.testing.assert_allclose(
        t.sum(axis=0).sum().item(), t.sum().item(), rtol=1e-10, atol=1e-12
    )


@given(arrays((2, 2, 4, 4)))
def test_im2col_preserves_energy_without_overlap(x):
    """With stride == kernel (no overlap), im2col is a permutation."""
    cols = ops.im2col(Tensor(x), (2, 2), 2, 0)
    np.testing.assert_allclose(
        np.sort(cols.data.ravel()), np.sort(x.ravel()), atol=1e-12
    )


@given(arrays((1, 2, 4, 4)))
def test_col2im_im2col_adjoint_identity(x):
    """<im2col(x), y> == <x, col2im(y)> for random y."""
    kernel, stride, pad = (3, 3), 1, 1
    cols = ops.im2col(Tensor(x), kernel, stride, pad)
    y = np.random.default_rng(0).normal(size=cols.shape)
    lhs = float((cols.data * y).sum())
    rhs = float(
        (ops.col2im(Tensor(y), x.shape, kernel, stride, pad).data * x).sum()
    )
    assert abs(lhs - rhs) < 1e-8


@given(arrays((3,)))
def test_gradient_of_sum_is_ones(a):
    t = Tensor(a, requires_grad=True)
    (g,) = grad(t.sum(), [t])
    np.testing.assert_allclose(g.data, np.ones(3))


@given(arrays((3,)), arrays((3,)))
def test_gradient_linearity(a, b):
    """grad of (f + g) equals grad f + grad g."""
    ta = Tensor(a, requires_grad=True)
    f = (ta * Tensor(b)).sum()
    g_ = (ta * ta).sum()
    (combined,) = grad(f + g_, [ta])
    ta2 = Tensor(a, requires_grad=True)
    (gf,) = grad((ta2 * Tensor(b)).sum(), [ta2])
    ta3 = Tensor(a, requires_grad=True)
    (gg,) = grad((ta3 * ta3).sum(), [ta3])
    np.testing.assert_allclose(combined.data, gf.data + gg.data, atol=1e-10)


@given(arrays((2, 4, 4)))
def test_maxpool_output_bounded_by_input(x):
    x4 = x[None]
    out = ops.maxpool2d(Tensor(x4), 2).data
    assert out.max() <= x4.max() + 1e-12
    assert out.min() >= x4.min() - 1e-12


# ----------------------------------------------------------------------
# Fused vs composed conv2d: the equivalence claimed in autodiff.fused,
# checked over random shapes, strides and paddings.
# ----------------------------------------------------------------------

@st.composite
def conv_cases(draw):
    """A random but always-valid conv2d problem (tensors + hyperparams)."""
    n = draw(st.integers(1, 2))
    c = draw(st.integers(1, 2))
    f = draw(st.integers(1, 3))
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    h = kh + draw(st.integers(0, 3))
    w = kw + draw(st.integers(0, 3))
    with_bias = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    weight = rng.normal(size=(f, c, kh, kw)) * 0.5
    bias = rng.normal(size=(f,)) if with_bias else None
    return x, weight, bias, stride, pad


def _seed_grad(shape):
    """Deterministic upstream gradient, a function of the output shape only."""
    return np.random.default_rng(int(np.prod(shape))).normal(size=shape)


def _run(op, case, backward=False):
    x_data, w_data, b_data, stride, pad = case
    x = Tensor(x_data.copy(), requires_grad=backward)
    w = Tensor(w_data.copy(), requires_grad=backward)
    b = Tensor(b_data.copy(), requires_grad=backward) if b_data is not None else None
    out = op(x, w, b, stride=stride, pad=pad)
    if not backward:
        return out.data, ()
    out.backward(Tensor(_seed_grad(out.shape)))
    grads = [x.grad.data, w.grad.data]
    if b is not None:
        grads.append(b.grad.data)
    return out.data, grads


@given(conv_cases())
def test_fused_forward_bitwise_equals_composed(case):
    fused, _ = _run(conv2d_fused, case)
    composed, _ = _run(conv2d_composed, case)
    assert np.array_equal(fused, composed)


@given(conv_cases())
def test_fused_backward_bitwise_equals_composed(case):
    fused_out, fused_grads = _run(conv2d_fused, case, backward=True)
    composed_out, composed_grads = _run(conv2d_composed, case, backward=True)
    assert np.array_equal(fused_out, composed_out)
    assert len(fused_grads) == len(composed_grads)
    for got, want in zip(fused_grads, composed_grads):
        assert np.array_equal(got, want)


@settings(max_examples=10, deadline=None)
@given(conv_cases())
def test_fused_double_backward_matches_composed(case):
    x_data, w_data, _b, stride, pad = case

    def grad_of_grad_norm(op):
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        out = ops.sum_(op(x, w, None, stride=stride, pad=pad) ** 2)
        (gx,) = grad(out, [x], create_graph=True)
        return grad(ops.sum_(gx**2), [w])[0].data

    fused = grad_of_grad_norm(conv2d_fused)
    composed = grad_of_grad_norm(conv2d_composed)
    assert np.allclose(fused, composed, atol=1e-9)


@given(conv_cases(), conv_cases())
def test_workspace_reuse_across_mismatched_shapes(case_a, case_b):
    """Interleaving differently-shaped convs never corrupts pooled scratch."""
    ws = get_workspace()
    ws.clear()
    first, _ = _run(conv2d_fused, case_a, backward=True)
    _run(conv2d_fused, case_b, backward=True)  # pollute the free lists
    again, again_grads = _run(conv2d_fused, case_a, backward=True)
    assert np.array_equal(first, again)
    _, composed_grads = _run(conv2d_composed, case_a, backward=True)
    for got, want in zip(again_grads, composed_grads):
        assert np.array_equal(got, want)


@given(st.integers(1, 6), st.integers(1, 6))
def test_workspace_checkout_shapes_are_exact(rows, cols):
    ws = Workspace()
    buffer = ws.checkout((rows, cols), np.float64)
    assert buffer.shape == (rows, cols)
    ws.release(buffer)
    assert ws.checkout((rows, cols), np.float64) is buffer
