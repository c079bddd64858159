"""Fused conv2d autodiff kernels.

The composed :func:`repro.autodiff.functional.conv2d` builds every
convolution out of five primitive graph nodes (im2col -> transpose ->
reshape -> matmul -> reshape -> transpose -> add), each of which copies its
operand and allocates a fresh gradient node on backward.  For the small
models this repository trains, that per-node Python and allocation overhead
dominates the actual GEMM time.

This module collapses the whole convolution into a **single** graph node:

* forward: pad -> im2col -> GEMM -> bias in one numpy kernel, with the
  column matrix built directly in the ``(C*KH*KW, N*OH*OW)`` GEMM layout;
* backward: hand-written adjoints — ``dW`` via GEMM on the column matrix's
  transpose, rebuilt from the saved input ``x``; ``dX`` via GEMM + col2im;
  ``db`` via a sum reduction.

Scratch arrays (padded images, column matrices, transposed gradients) come
from the byte-keyed :class:`~repro.autodiff.workspace.Workspace`, so the
training hot path stops allocating per step, and a ``(K, M)`` buffer one
kernel releases is the ``(M, K)`` buffer the next one checks out.  No
scratch buffer outlives the GEMM it feeds: the forward releases its column
matrix right after the forward GEMM, so nothing is checked out between a
forward and its backward.  A warm LeNet-5 step (batch 32) pools 8.6 MB,
where keeping each layer's 4.9 MB column matrix until backward pooled 28.2.

Double backward still works: the backward rules are themselves expressed as
graph nodes (:func:`_conv_dx_node` / :func:`_conv_dw_node`), and the three
constructors are mutually adjoint — convolution is bilinear in ``(x, W)``,
so its derivative graph closes over exactly these three operations.  This
keeps the DRIA attack (which differentiates through the model's backward
pass) working unchanged on the fused path.

Every kernel reproduces the composed implementation **bitwise**: GEMM
operand layouts, the padding fill, the col2im accumulation order and the
bias reduction all match the primitive composition exactly.  Transposes are
materialised as contiguous copies because BLAS results for transposed views
are not bit-stable across shapes: handing ``cols.T`` to the dW GEMM instead
of a contiguous copy changes bits on about half the shapes tried (2 419 of
4 480 on one grid, 284 of 560 on another, OpenBLAS, one thread).  Both
operands are gathered from one strided window view of the padded input in
a single copy, so the dW operand ``(N*OH*OW, C*KH*KW)`` holds exactly the
bytes of the column matrix's contiguous transpose.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ops import _make, reshape as _reshape_op, sum_ as _sum_op
from .tensor import Tensor, as_tensor
from .workspace import Workspace, get_workspace
from ..graph import trace as _trace

__all__ = ["conv2d_fused"]


def _needs(t: Tensor) -> bool:
    """Whether a gradient for ``t`` would actually be consumed."""
    return t.requires_grad or t._grad_fn is not None


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(in={size}, k={kernel}, s={stride}, p={pad})"
        )
    return out


# ----------------------------------------------------------------------
# numpy kernels (no graph)
# ----------------------------------------------------------------------

def _windows(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, axes: tuple,
    ws: Workspace,
) -> np.ndarray:
    """Every conv window of ``x``, copied into one pooled 2-D GEMM operand.

    One strided ``(N, OH, OW, C, KH, KW)`` view over the zero-padded input,
    transposed to ``axes`` and copied in a single pass; the first three
    axes after the transpose index the operand's rows.  The caller owns the
    returned buffer and releases it.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if pad:
        xp = ws.checkout((n, c, h + 2 * pad, w + 2 * pad))
        xp.fill(0.0)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    view = as_strided(
        xp,
        (n, oh, ow, c, kh, kw),
        (sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    ).transpose(axes)
    dims = view.shape
    buf = ws.checkout((dims[0] * dims[1] * dims[2], dims[3] * dims[4] * dims[5]))
    np.copyto(buf.reshape(dims), view)
    if pad:
        ws.release(xp)
    return buf


def _im2col_cols(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace
) -> np.ndarray:
    """Column matrix of ``x`` in GEMM layout ``(C*KH*KW, N*OH*OW)`` (pooled)."""
    return _windows(x, kh, kw, stride, pad, (3, 4, 5, 0, 1, 2), ws)


def _cols_t(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace
) -> np.ndarray:
    """The column matrix's transpose, ``(N*OH*OW, C*KH*KW)`` (pooled).

    Byte for byte ``np.ascontiguousarray(_im2col_cols(x, ...).T)``, built
    straight from ``x`` so no column matrix has to outlive the forward GEMM.
    """
    return _windows(x, kh, kw, stride, pad, (0, 1, 2, 3, 4, 5), ws)


def _grad_mat(g: np.ndarray, ws: Workspace) -> np.ndarray:
    """Contiguous ``(F, N*OH*OW)`` copy of an output gradient (pooled)."""
    n, f, oh, ow = g.shape
    gt = ws.checkout((f, n * oh * ow))
    np.copyto(gt.reshape(f, n, oh, ow), g.transpose(1, 0, 2, 3))
    return gt


def _conv_forward_data(
    x: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray],
    stride: int,
    pad: int,
    ws: Workspace,
) -> np.ndarray:
    """Fused forward: im2col -> GEMM -> bias; every scratch buffer released."""
    n = x.shape[0]
    f = w.shape[0]
    kh, kw = w.shape[2], w.shape[3]
    oh = _out_size(x.shape[2], kh, stride, pad)
    ow = _out_size(x.shape[3], kw, stride, pad)
    cols = _im2col_cols(x, kh, kw, stride, pad, ws)
    out_mat = ws.checkout((f, n * oh * ow))
    np.matmul(w.reshape(f, -1), cols, out=out_mat)
    ws.release(cols)
    out_view = out_mat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    if b is not None:
        out = out_view + b.reshape(1, f, 1, 1)
    else:
        # Explicit copy: for n == 1 the transpose is already contiguous, so
        # ascontiguousarray would alias the pooled buffer we release below.
        out = np.empty((n, f, oh, ow))
        np.copyto(out, out_view)
    ws.release(out_mat)
    return out


def _conv_dw_data(
    gt: np.ndarray, x: np.ndarray, w_shape: tuple, stride: int, pad: int,
    ws: Workspace,
) -> np.ndarray:
    """``dW = g_mat @ cols.T`` on a contiguous transpose rebuilt from ``x``."""
    cols_t = _cols_t(x, w_shape[2], w_shape[3], stride, pad, ws)
    dw = (gt @ cols_t).reshape(w_shape)
    ws.release(cols_t)
    return dw


def _conv_dx_data(
    gt: np.ndarray,
    w: np.ndarray,
    x_shape: tuple,
    stride: int,
    pad: int,
    ws: Workspace,
) -> np.ndarray:
    """``dX = col2im(W.T @ g_mat)`` with pooled scratch."""
    n, c, h, wd = x_shape
    f = w.shape[0]
    kh, kw = w.shape[2], w.shape[3]
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(wd, kw, stride, pad)
    w_t = np.ascontiguousarray(w.reshape(f, -1).T)
    dcols = ws.checkout((c * kh * kw, n * oh * ow))
    np.matmul(w_t, gt, out=dcols)
    dcols6 = dcols.reshape(c, kh, kw, n, oh, ow)
    if pad:
        xp = ws.checkout((n, c, h + 2 * pad, wd + 2 * pad), zero=True)
    else:
        xp = np.zeros((n, c, h, wd))
    for i in range(kh):
        for j in range(kw):
            xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ] += dcols6[:, i, j].transpose(1, 0, 2, 3)
    if pad:
        dx = xp[:, :, pad : pad + h, pad : pad + wd].copy()
        ws.release(xp)
    else:
        dx = xp
    ws.release(dcols)
    return dx


# ----------------------------------------------------------------------
# graph nodes (mutually adjoint: conv is bilinear in (x, W))
# ----------------------------------------------------------------------

def _conv_dx_node(
    g: Tensor, w: Tensor, x_shape: tuple, stride: int, pad: int,
    gt: Optional[np.ndarray] = None,
) -> Tensor:
    """Differentiable ``dX`` node: linear in ``g`` and in ``w``."""
    ws = get_workspace()
    own_gt = gt is None
    if own_gt:
        gt = _grad_mat(g.data, ws)
    data = _conv_dx_data(gt, w.data, x_shape, stride, pad, ws)
    if own_gt:
        ws.release(gt)

    def grad_fn(h):
        return (
            conv2d_fused(h, w, None, stride, pad) if _needs(g) else None,
            _conv_dw_node(g, h, w.shape, stride, pad) if _needs(w) else None,
        )

    out = _make(data, (g, w), grad_fn, "conv2d_dx")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "conv2d_dx", (g, w), out,
            x_shape=tuple(x_shape), stride=stride, pad=pad,
        )
    return out


def _conv_dw_node(
    g: Tensor, x: Tensor, w_shape: tuple, stride: int, pad: int,
    gt: Optional[np.ndarray] = None,
) -> Tensor:
    """Differentiable ``dW`` node: linear in ``g`` and in ``x``."""
    ws = get_workspace()
    own_gt = gt is None
    if own_gt:
        gt = _grad_mat(g.data, ws)
    data = _conv_dw_data(gt, x.data, w_shape, stride, pad, ws)
    if own_gt:
        ws.release(gt)

    def grad_fn(h):
        return (
            conv2d_fused(x, h, None, stride, pad) if _needs(g) else None,
            _conv_dx_node(g, h, x.shape, stride, pad) if _needs(x) else None,
        )

    out = _make(data, (g, x), grad_fn, "conv2d_dw")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "conv2d_dw", (g, x), out,
            w_shape=tuple(w_shape), stride=stride, pad=pad,
        )
    return out


def check_conv_geometry(filters, kernel_size, stride, pad) -> None:
    """Raise ``ValueError`` naming the first geometry field out of range.

    ``filters``, ``kernel_size`` and ``stride`` must be integers >= 1 and
    ``pad`` an integer >= 0; anything else would divide by zero, or make
    the strided window view read outside the padded input.
    """
    for field, value, low in (
        ("filters", filters, 1),
        ("kernel_size", kernel_size, 1),
        ("stride", stride, 1),
        ("pad", pad, 0),
    ):
        if not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(
                f"conv2d {field} must be an integer >= {low}, got {value!r}"
            )


def conv2d_fused(
    x,
    weight,
    bias=None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Single-node 2-D convolution (cross-correlation) in NCHW layout.

    Drop-in replacement for the composed
    :func:`repro.autodiff.functional.conv2d`: identical output bits,
    identical gradient bits, arbitrary-order differentiable — one graph
    node instead of five, with workspace-pooled scratch.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias_t = as_tensor(bias) if bias is not None else None
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {wc}")
    check_conv_geometry(f, min(kh, kw), stride, pad)
    ws = get_workspace()
    out = _conv_forward_data(
        x.data, weight.data, bias_t.data if bias_t is not None else None,
        stride, pad, ws,
    )
    x_shape, w_shape = x.shape, weight.shape

    def grad_fn(g):
        gt = _grad_mat(g.data, ws)
        # Only materialise the adjoints whose parent actually consumes a
        # gradient — skipping dX on a first layer avoids its GEMM + col2im.
        dx = (
            _conv_dx_node(g, weight, x_shape, stride, pad, gt=gt)
            if _needs(x)
            else None
        )
        dw = (
            _conv_dw_node(g, x, w_shape, stride, pad, gt=gt)
            if _needs(weight)
            else None
        )
        ws.release(gt)
        if bias_t is None:
            return (dx, dw)
        db = (
            _reshape_op(_sum_op(g, axis=(0, 2, 3), keepdims=True), (f,))
            if _needs(bias_t)
            else None
        )
        return (dx, dw, db)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)
    result = _make(out, parents, grad_fn, "conv2d")
    if _trace.TAPE is not None:
        _trace.TAPE.op(
            "conv2d_fused", parents, result,
            stride=stride, pad=pad, has_bias=bias_t is not None,
        )
    return result
