"""Composite differentiable functions built from primitive ops.

These are the building blocks the :mod:`repro.nn` layers use.  Because they
are pure compositions of the primitives in :mod:`repro.autodiff.ops`, all of
them support double backward.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import ops
from .fused import conv2d_fused
from .tensor import Tensor, as_tensor

__all__ = [
    "linear", "conv2d", "conv2d_composed", "flatten", "softmax", "log_softmax",
    "cross_entropy", "gelu", "layer_norm", "softmax_lastaxis", "attention_weights",
]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``.

    Parameters
    ----------
    x: shape ``(N, in_features)``.
    weight: shape ``(out_features, in_features)``.
    bias: shape ``(out_features,)`` or None.
    """
    out = ops.matmul(x, ops.transpose(weight))
    if bias is not None:
        out = ops.add(out, ops.reshape(bias, (1, -1)))
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) in NCHW layout.

    Runs the fused single-node kernel; :func:`conv2d_composed` below is its
    bitwise-identical reference in both values and gradients.

    Parameters
    ----------
    x: shape ``(N, C, H, W)``.
    weight: shape ``(F, C, KH, KW)``.
    bias: shape ``(F,)`` or None.
    """
    return conv2d_fused(x, weight, bias, stride=stride, pad=pad)


def conv2d_composed(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Reference conv2d built from five primitive ops (the pre-fusion path)."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {wc}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1

    cols = ops.im2col(x, (kh, kw), stride, pad)        # (N, C*KH*KW, OH*OW)
    cols = ops.transpose(cols, (1, 0, 2))              # (CK, N, P)
    cols = ops.reshape(cols, (c * kh * kw, n * oh * ow))
    w_mat = ops.reshape(weight, (f, c * kh * kw))
    out = ops.matmul(w_mat, cols)                      # (F, N*P)
    out = ops.reshape(out, (f, n, oh, ow))
    out = ops.transpose(out, (1, 0, 2, 3))             # (N, F, OH, OW)
    if bias is not None:
        out = ops.add(out, ops.reshape(bias, (1, f, 1, 1)))
    return out


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch dimensions: (N, ...) -> (N, D)."""
    n = x.shape[0]
    return ops.reshape(x, (n, -1))


def _stable_shift(x: Tensor) -> Tensor:
    """Subtract the per-row max (as a constant) for numerical stability."""
    from ..graph import trace as _trace

    shift = Tensor(x.data.max(axis=1, keepdims=True))
    if _trace.TAPE is not None:
        _trace.TAPE.op("rowmax", (x,), shift)
    return ops.sub(x, shift)


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax for a 2-D logits tensor (N, K)."""
    z = ops.exp(_stable_shift(x))
    total = ops.sum_(z, axis=1, keepdims=True)
    return ops.div(z, total)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax for a 2-D logits tensor (N, K)."""
    shifted = _stable_shift(x)
    log_total = ops.log(ops.sum_(ops.exp(shifted), axis=1, keepdims=True))
    return ops.sub(shifted, log_total)


def cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean categorical cross-entropy.

    Parameters
    ----------
    logits: shape ``(N, K)`` raw scores.
    targets: shape ``(N, K)`` one-hot (or soft) labels; treated as a
        constant of the logits' dtype.
    """
    targets = as_tensor(targets)
    if targets.shape != logits.shape:
        raise ValueError(
            f"targets shape {targets.shape} must match logits shape {logits.shape}"
        )
    n = logits.shape[0]
    constant = Tensor(targets.data.astype(logits.data.dtype, copy=False))
    picked = ops.mul(log_softmax(logits), constant)
    return ops.mul(ops.sum_(picked), -1.0 / n)


# Constant of the GELU tanh approximation: sqrt(2 / pi).
_GELU_C = 0.7978845608028654


def gelu(x: Tensor) -> Tensor:
    """GELU activation (tanh approximation), double-backward safe.

    ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))`` — the usual
    transformer-block formulation, composed purely from primitives so DRIA
    can differentiate through it twice.
    """
    x = as_tensor(x)
    cubic = ops.add(x, ops.mul(ops.mul(ops.mul(x, x), x), 0.044715))
    inner = ops.tanh(ops.mul(cubic, _GELU_C))
    return ops.mul(ops.mul(x, 0.5), ops.add(inner, 1.0))


def layer_norm(
    x: Tensor,
    weight: Optional[Tensor] = None,
    bias: Optional[Tensor] = None,
    eps: float = 1e-5,
) -> Tensor:
    """Layer normalisation over the last axis.

    Parameters
    ----------
    x: shape ``(..., D)``.
    weight: scale of shape ``(D,)`` or None.
    bias: shift of shape ``(D,)`` or None.
    """
    x = as_tensor(x)
    axis = x.ndim - 1
    mu = ops.mean(x, axis=axis, keepdims=True)
    centered = ops.sub(x, mu)
    var = ops.mean(ops.mul(centered, centered), axis=axis, keepdims=True)
    inv = ops.pow_(ops.add(var, eps), -0.5)
    out = ops.mul(centered, inv)
    if weight is not None:
        out = ops.mul(out, weight)
    if bias is not None:
        out = ops.add(out, bias)
    return out


def softmax_lastaxis(x: Tensor) -> Tensor:
    """Softmax over the last axis of an N-D tensor (N >= 2).

    Higher-rank inputs are flattened to rows so the numerically-stable 2-D
    :func:`softmax` (and its single ``rowmax`` trace op) is reused verbatim —
    the compiled path stays bitwise identical to eager by construction.
    """
    x = as_tensor(x)
    if x.ndim == 2:
        return softmax(x)
    shape = x.shape
    rows = int(np.prod(shape[:-1]))
    flat = ops.reshape(x, (rows, shape[-1]))
    return ops.reshape(softmax(flat), shape)


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product attention weights ``softmax(q k^T / sqrt(d))``.

    Parameters
    ----------
    q: queries, shape ``(B, T, D)``.
    k: keys, shape ``(B, T, D)``.

    Returns the row-stochastic attention matrix of shape ``(B, T, T)``.
    """
    q, k = as_tensor(q), as_tensor(k)
    d = q.shape[-1]
    scores = ops.mul(ops.bmm(q, ops.transpose(k, (0, 2, 1))), 1.0 / float(np.sqrt(d)))
    return softmax_lastaxis(scores)
