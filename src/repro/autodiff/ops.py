"""Primitive differentiable operations.

Every backward rule below is written in terms of the primitives themselves,
so gradients are graph-connected tensors and arbitrary-order differentiation
works (this is what lets the DRIA attack optimise through the model's own
backward pass).

A rule that needs the op's own output (``exp``, ``sigmoid``, ``tanh``)
holds it through a ``weakref.ref``: a closure over ``out`` would make
``out -> out._grad_fn -> out`` a reference cycle and keep the whole graph
behind it alive until the cyclic collector ran.  The output is alive
whenever its rule runs, since the backward pass reaches the rule through it.

The module attaches operator overloads and convenience methods to
:class:`repro.autodiff.tensor.Tensor` at import time.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, as_tensor
from ..graph import trace as _trace

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "exp", "log",
    "matmul", "bmm", "sum_", "mean", "reshape", "transpose", "broadcast_to",
    "getitem", "pad2d", "relu", "sigmoid", "tanh", "im2col", "col2im", "maxpool2d",
]


def _result_requires(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._grad_fn is not None for t in tensors)


def _make(data, parents, grad_fn, name: str = "") -> Tensor:
    if _result_requires(*parents):
        return Tensor(data, requires_grad=False, parents=parents, grad_fn=grad_fn, name=name)
    return Tensor(data)


# ----------------------------------------------------------------------
# Broadcasting helpers
# ----------------------------------------------------------------------

def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    # Sum away prepended axes.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)), keepdims=False)
    # Sum over axes that were broadcast from 1.
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


def broadcast_to(x: Tensor, shape: tuple) -> Tensor:
    """Broadcast ``x`` to ``shape`` (differentiable)."""
    x = as_tensor(x)
    target = tuple(shape)
    data = np.broadcast_to(x.data, target).copy()
    x_shape = x.shape

    def grad_fn(g):
        return (_unbroadcast(g, x_shape),)

    out = _make(data, (x,), grad_fn, "broadcast_to")
    if _trace.TAPE is not None:
        _trace.TAPE.op("broadcast_to", (x,), out, shape=target)
    return out


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    out = _make(a.data + b.data, (a, b), grad_fn, "add")
    if _trace.TAPE is not None:
        _trace.TAPE.op("add", (a, b), out)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(neg(g), b_shape))

    out = _make(a.data - b.data, (a, b), grad_fn, "sub")
    if _trace.TAPE is not None:
        _trace.TAPE.op("sub", (a, b), out)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_shape, b_shape = a.shape, b.shape

    def grad_fn(g):
        return (_unbroadcast(mul(g, b), a_shape), _unbroadcast(mul(g, a), b_shape))

    out = _make(a.data * b.data, (a, b), grad_fn, "mul")
    if _trace.TAPE is not None:
        _trace.TAPE.op("mul", (a, b), out)
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return mul(a, pow_(b, -1.0))


def neg(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (neg(g),)

    out = _make(-a.data, (a,), grad_fn, "neg")
    if _trace.TAPE is not None:
        _trace.TAPE.op("neg", (a,), out)
    return out


def pow_(a, exponent: float) -> Tensor:
    """Raise ``a`` to a constant scalar power."""
    a = as_tensor(a)
    exponent = float(exponent)

    def grad_fn(g):
        return (mul(g, mul(pow_(a, exponent - 1.0), exponent)),)

    out = _make(a.data ** exponent, (a,), grad_fn, "pow")
    if _trace.TAPE is not None:
        _trace.TAPE.op("pow", (a,), out, exponent=exponent)
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    if not _result_requires(a):
        out = Tensor(out_data)
        if _trace.TAPE is not None:
            _trace.TAPE.op("exp", (a,), out)
        return out
    out = Tensor(out_data, parents=(a,), grad_fn=None, name="exp")
    out_ref = weakref.ref(out)

    def grad_fn(g):
        return (mul(g, out_ref()),)

    out._grad_fn = grad_fn
    if _trace.TAPE is not None:
        _trace.TAPE.op("exp", (a,), out)
    return out


def log(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (div(g, a),)

    out = _make(np.log(a.data), (a,), grad_fn, "log")
    if _trace.TAPE is not None:
        _trace.TAPE.op("log", (a,), out)
    return out


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product of 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D tensors, got {a.shape} @ {b.shape}")

    def grad_fn(g):
        return (matmul(g, transpose(b)), matmul(transpose(a), g))

    out = _make(a.data @ b.data, (a, b), grad_fn, "matmul")
    if _trace.TAPE is not None:
        _trace.TAPE.op("matmul", (a, b), out)
    return out


def bmm(a, b) -> Tensor:
    """Batched matrix product of 3-D tensors: ``(B, M, K) @ (B, K, N)``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"bmm expects 3-D tensors, got {a.shape} @ {b.shape}")

    def grad_fn(g):
        return (bmm(g, transpose(b, (0, 2, 1))), bmm(transpose(a, (0, 2, 1)), g))

    out = _make(np.matmul(a.data, b.data), (a, b), grad_fn, "bmm")
    if _trace.TAPE is not None:
        _trace.TAPE.op("bmm", (a, b), out)
    return out


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (transpose(g, inverse),)

    out = _make(np.transpose(a.data, axes).copy(), (a,), grad_fn, "transpose")
    if _trace.TAPE is not None:
        _trace.TAPE.op("transpose", (a,), out, axes=axes)
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    original = a.shape

    def grad_fn(g):
        return (reshape(g, original),)

    out = _make(a.data.reshape(shape).copy(), (a,), grad_fn, "reshape")
    if _trace.TAPE is not None:
        _trace.TAPE.op("reshape", (a,), out, shape=shape)
    return out


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    a_shape = a.shape
    if axis is None:
        norm_axes = tuple(range(a.ndim))
    elif isinstance(axis, int):
        norm_axes = (axis % a.ndim,)
    else:
        norm_axes = tuple(ax % a.ndim for ax in axis)

    def grad_fn(g):
        if not keepdims:
            kept = [1 if i in norm_axes else s for i, s in enumerate(a_shape)]
            g = reshape(g, tuple(kept))
        return (broadcast_to(g, a_shape),)

    data = a.data.sum(axis=norm_axes if axis is not None else None, keepdims=keepdims)
    data = np.asarray(data)
    out = _make(data, (a,), grad_fn, "sum")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "sum",
            (a,),
            out,
            axis=norm_axes if axis is not None else None,
            keepdims=keepdims,
        )
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis % a.ndim]
    else:
        count = int(np.prod([a.shape[ax % a.ndim] for ax in axis]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ----------------------------------------------------------------------
# Indexing and padding
# ----------------------------------------------------------------------

def getitem(a, index) -> Tensor:
    """Basic (slice / int / tuple) indexing; backward scatters into zeros."""
    a = as_tensor(a)
    a_shape = a.shape

    def grad_fn(g):
        return (_scatter(g, index, a_shape),)

    out = _make(np.asarray(a.data[index]).copy(), (a,), grad_fn, "getitem")
    if _trace.TAPE is not None:
        _trace.TAPE.op("getitem", (a,), out, index=index)
    return out


def _scatter(g: Tensor, index, target_shape: tuple) -> Tensor:
    """Adjoint of :func:`getitem`: place ``g`` at ``index`` in a zero tensor."""
    def grad_fn(gg):
        return (getitem(gg, index),)

    data = np.zeros(target_shape, dtype=g.data.dtype)
    data[index] = g.data
    out = _make(data, (g,), grad_fn, "scatter")
    if _trace.TAPE is not None:
        _trace.TAPE.op("scatter", (g,), out, index=index, shape=tuple(target_shape))
    return out


def pad2d(a, pad: int) -> Tensor:
    """Zero-pad the last two axes of a 4-D tensor by ``pad`` on each side."""
    a = as_tensor(a)
    if pad == 0:
        return a
    if a.ndim != 4:
        raise ValueError(f"pad2d expects a 4-D tensor, got shape {a.shape}")

    index = (slice(None), slice(None), slice(pad, a.shape[2] + pad), slice(pad, a.shape[3] + pad))

    def grad_fn(g):
        return (getitem(g, index),)

    data = np.pad(a.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = _make(data, (a,), grad_fn, "pad2d")
    if _trace.TAPE is not None:
        _trace.TAPE.op("pad2d", (a,), out, pad=pad)
    return out


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = Tensor((a.data > 0).astype(a.data.dtype))
    if _trace.TAPE is not None:
        _trace.TAPE.op("gtzero_mask", (a,), mask)

    def grad_fn(g):
        return (mul(g, mask),)

    out = _make(np.maximum(a.data, 0.0), (a,), grad_fn, "relu")
    if _trace.TAPE is not None:
        _trace.TAPE.op("relu", (a,), out)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    if not _result_requires(a):
        out = Tensor(out_data)
        if _trace.TAPE is not None:
            _trace.TAPE.op("sigmoid", (a,), out)
        return out
    out = Tensor(out_data, parents=(a,), grad_fn=None, name="sigmoid")
    out_ref = weakref.ref(out)

    def grad_fn(g):
        y = out_ref()
        return (mul(g, mul(y, sub(1.0, y))),)

    out._grad_fn = grad_fn
    if _trace.TAPE is not None:
        _trace.TAPE.op("sigmoid", (a,), out)
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    if not _result_requires(a):
        out = Tensor(out_data)
        if _trace.TAPE is not None:
            _trace.TAPE.op("tanh", (a,), out)
        return out
    out = Tensor(out_data, parents=(a,), grad_fn=None, name="tanh")
    out_ref = weakref.ref(out)

    def grad_fn(g):
        y = out_ref()
        return (mul(g, sub(1.0, mul(y, y))),)

    out._grad_fn = grad_fn
    if _trace.TAPE is not None:
        _trace.TAPE.op("tanh", (a,), out)
    return out


# ----------------------------------------------------------------------
# Convolution building blocks (mutually adjoint linear maps)
# ----------------------------------------------------------------------

def _conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(in={size}, k={kernel}, s={stride}, p={pad})"
        )
    return out


def _im2col_array(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh = _conv_output_size(h, kh, stride, pad)
    ow = _conv_output_size(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :, :] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im_array(
    cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    n, c, h, w = x_shape
    oh = _conv_output_size(h, kh, stride, pad)
    ow = _conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[
                :, :, i, j, :, :
            ]
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w].copy()
    return xp


def im2col(x, kernel: Tuple[int, int], stride: int, pad: int) -> Tensor:
    """Unfold image patches: (N,C,H,W) -> (N, C*KH*KW, OH*OW)."""
    x = as_tensor(x)
    kh, kw = kernel
    x_shape = x.shape

    def grad_fn(g):
        return (col2im(g, x_shape, kernel, stride, pad),)

    out = _make(_im2col_array(x.data, kh, kw, stride, pad), (x,), grad_fn, "im2col")
    if _trace.TAPE is not None:
        _trace.TAPE.op("im2col", (x,), out, kernel=(kh, kw), stride=stride, pad=pad)
    return out


def col2im(cols, x_shape: tuple, kernel: Tuple[int, int], stride: int, pad: int) -> Tensor:
    """Adjoint of :func:`im2col` (scatter-add patches back into an image)."""
    cols = as_tensor(cols)
    kh, kw = kernel

    def grad_fn(g):
        return (im2col(g, kernel, stride, pad),)

    data = _col2im_array(cols.data, tuple(x_shape), kh, kw, stride, pad)
    out = _make(data, (cols,), grad_fn, "col2im")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "col2im",
            (cols,),
            out,
            x_shape=tuple(x_shape),
            kernel=(kh, kw),
            stride=stride,
            pad=pad,
        )
    return out


# ----------------------------------------------------------------------
# Max pooling (non-overlapping windows)
# ----------------------------------------------------------------------

def maxpool2d(x, kernel: int = 2) -> Tensor:
    """Max pool with square non-overlapping windows (stride == kernel).

    The forward pass computes, once, the absolute ``(n, c, row, col)``
    coordinates of every window's argmax; the whole backward chain
    (scatter, and the gather its double backward needs) reuses those cached
    coordinates as fancy indices instead of re-deriving the window
    transpose on every application.
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"maxpool2d requires spatial dims divisible by kernel "
            f"(shape={x.shape}, kernel={kernel})"
        )
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kernel * kernel)
    idx = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    # Absolute input coordinates of each window maximum (non-overlapping
    # windows => the positions are unique, so plain assignment scatters).
    rows = np.arange(oh).reshape(1, 1, oh, 1) * kernel + idx // kernel
    cols = np.arange(ow).reshape(1, 1, 1, ow) * kernel + idx % kernel
    argmax = (
        np.arange(n).reshape(n, 1, 1, 1),
        np.arange(c).reshape(1, c, 1, 1),
        rows,
        cols,
    )

    def grad_fn(g):
        return (_maxpool_scatter(g, argmax, x.shape),)

    out = _make(out_data, (x,), grad_fn, "maxpool2d")
    if _trace.TAPE is not None:
        _trace.TAPE.op("maxpool2d", (x,), (out, argmax), kernel=kernel)
    return out


def _maxpool_scatter(g: Tensor, argmax: tuple, x_shape: tuple) -> Tensor:
    """Place pooled gradients at the cached argmax coordinates."""

    def grad_fn(gg):
        return (_maxpool_gather(gg, argmax),)

    data = np.zeros(x_shape, dtype=g.data.dtype)
    data[argmax] = g.data
    out = _make(data, (g,), grad_fn, "maxpool_scatter")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "maxpool_scatter", (g, argmax), out, x_shape=tuple(x_shape)
        )
    return out


def _maxpool_gather(x: Tensor, argmax: tuple) -> Tensor:
    """Read the cached argmax coordinates back out (adjoint of scatter)."""

    def grad_fn(g):
        return (_maxpool_scatter(g, argmax, x.shape),)

    data = x.data[argmax]
    out = _make(data, (x,), grad_fn, "maxpool_gather")
    if _trace.TAPE is not None:
        _trace.TAPE.op("maxpool_gather", (x, argmax), out)
    return out


# ----------------------------------------------------------------------
# Operator overloads
# ----------------------------------------------------------------------

def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.exp = lambda self: exp(self)
    Tensor.log = lambda self: log(self)


_install_operators()
