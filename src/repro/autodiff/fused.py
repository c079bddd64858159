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
* backward: hand-written adjoints — ``dW`` via GEMM on the cached forward
  columns, ``dX`` via GEMM + col2im, ``db`` via a sum reduction.

Scratch arrays (padded images, column matrices, transposed gradients) come
from the byte-keyed :class:`~repro.autodiff.workspace.Workspace`, so the
training hot path stops allocating per step, and a ``(K, M)`` buffer one
kernel releases is the ``(M, K)`` buffer the next one checks out.

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
4 480 on one grid, 284 of 560 on another, OpenBLAS, one thread).  The dW
copy is done in row blocks of the column matrix (a pure copy, so the GEMM
sees the same bytes) because one full strided pass costs 3–6× the GEMM
it feeds at LeNet-5's ``(75, 8192)`` and ``(300, 2048)`` column matrices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .ops import _make, reshape as _reshape_op, sum_ as _sum_op
from .tensor import Tensor, as_tensor
from .workspace import Workspace, get_workspace
from ..graph import trace as _trace

__all__ = ["conv2d_fused"]

# Column-matrix rows per block of the dW transpose copy.
_TRANSPOSE_ROWS = 32


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

def _im2col_cols(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace
) -> np.ndarray:
    """Column matrix of ``x`` in GEMM layout ``(C*KH*KW, N*OH*OW)``.

    The returned buffer is checked out of ``ws``; the caller owns it and is
    responsible for releasing it.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    cols = ws.checkout((c * kh * kw, n * oh * ow))
    cols6 = cols.reshape(c, kh, kw, n, oh, ow)
    if pad:
        xp = ws.checkout((n, c, h + 2 * pad, w + 2 * pad))
        xp.fill(0.0)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    for i in range(kh):
        for j in range(kw):
            cols6[:, i, j] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ].transpose(1, 0, 2, 3)
    if pad:
        ws.release(xp)
    return cols


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
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused forward; returns ``(out, cols)`` with ``cols`` still leased."""
    n = x.shape[0]
    f = w.shape[0]
    kh, kw = w.shape[2], w.shape[3]
    oh = _out_size(x.shape[2], kh, stride, pad)
    ow = _out_size(x.shape[3], kw, stride, pad)
    cols = _im2col_cols(x, kh, kw, stride, pad, ws)
    out_mat = ws.checkout((f, n * oh * ow))
    np.matmul(w.reshape(f, -1), cols, out=out_mat)
    out_view = out_mat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    if b is not None:
        out = out_view + b.reshape(1, f, 1, 1)
    else:
        # Explicit copy: for n == 1 the transpose is already contiguous, so
        # ascontiguousarray would alias the pooled buffer we release below.
        out = np.empty((n, f, oh, ow))
        np.copyto(out, out_view)
    ws.release(out_mat)
    return out, cols


def _conv_dw_data(
    gt: np.ndarray, cols: np.ndarray, w_shape: tuple, ws: Workspace
) -> np.ndarray:
    """``dW = g_mat @ cols.T`` (explicit contiguous transpose, pooled).

    The transpose is copied ``_TRANSPOSE_ROWS`` column-matrix rows at a
    time: the same bytes land in the same contiguous ``cols_t``, but each
    pass works on a cache-sized slice of both buffers instead of striding
    across the whole of one (≈ 3× faster at LeNet-5's shapes).
    """
    k = cols.shape[0]
    cols_t = ws.checkout((cols.shape[1], k))
    for start in range(0, k, _TRANSPOSE_ROWS):
        block = slice(start, start + _TRANSPOSE_ROWS)
        cols_t[:, block] = cols[block].T
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
    cols: Optional[np.ndarray] = None,
) -> Tensor:
    """Differentiable ``dW`` node: linear in ``g`` and in ``x``.

    ``cols`` lets the fused forward hand over its cached column matrix so
    the common first-order backward skips the im2col; when absent (e.g. a
    double-backward re-derivation) the columns are rebuilt from ``x``.
    """
    ws = get_workspace()
    kh, kw = w_shape[2], w_shape[3]
    own_gt = gt is None
    if own_gt:
        gt = _grad_mat(g.data, ws)
    own_cols = cols is None
    if own_cols:
        cols = _im2col_cols(x.data, kh, kw, stride, pad, ws)
    data = _conv_dw_data(gt, cols, w_shape, ws)
    if own_cols:
        ws.release(cols)
    if own_gt:
        ws.release(gt)

    def grad_fn(h):
        return (
            conv2d_fused(x, h, None, stride, pad) if _needs(g) else None,
            _conv_dx_node(g, h, x.shape, stride, pad) if _needs(x) else None,
        )

    out = _make(data, (g, x), grad_fn, "conv2d_dw")
    if _trace.TAPE is not None:
        if own_cols:
            _trace.TAPE.op(
                "conv2d_dw", (g, x), out,
                w_shape=tuple(w_shape), stride=stride, pad=pad,
            )
        else:
            # The forward's cached column matrix is a first-class traced
            # value (second output of the conv2d_fused node).
            _trace.TAPE.op(
                "conv2d_dw_cols", (g, cols), out, w_shape=tuple(w_shape)
            )
    return out


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
    ws = get_workspace()
    out, cols = _conv_forward_data(
        x.data, weight.data, bias_t.data if bias_t is not None else None,
        stride, pad, ws,
    )
    x_shape, w_shape = x.shape, weight.shape
    # The cols lease lives in this cell: the first backward consumes and
    # releases it; rare repeated backwards (double-backward graphs walk the
    # forward node again) rebuild the columns from x instead.
    lease = [cols]

    def grad_fn(g):
        cached = lease[0]
        lease[0] = None
        gt = _grad_mat(g.data, ws)
        # Only materialise the adjoints whose parent actually consumes a
        # gradient — skipping dX on a first layer avoids its GEMM + col2im.
        dx = (
            _conv_dx_node(g, weight, x_shape, stride, pad, gt=gt)
            if _needs(x)
            else None
        )
        dw = (
            _conv_dw_node(g, x, w_shape, stride, pad, gt=gt, cols=cached)
            if _needs(weight)
            else None
        )
        if cached is not None:
            ws.release(cached)
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
            "conv2d_fused", parents, (result, cols),
            stride=stride, pad=pad, has_bias=bias_t is not None,
        )
    if result._grad_fn is None:
        # Inference path: no node retains the closure, return the lease now.
        ws.release(cols)
        lease[0] = None
    return result
