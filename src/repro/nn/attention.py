"""Transformer sublayers for the attention model family.

Pelta (PAPERS.md) shields *structured sublayer sets* of a transformer block —
softmax + layernorms of block *i* — rather than whole flat layers.  To make
that addressable by the protection policies, a transformer block here is six
flat, individually shieldable sublayers:

====  =========  ==========================================  ===============
role  params     forward                                      streams
====  =========  ==========================================  ===============
ln1   scale/bias ``h = LN(x)``                                ``x -> (x, h)``
qkv   fused W    ``q, k, v = split(h @ W_qkv^T + b)``         ``(x, h) -> (x, q, k, v)``
sm    —          ``a = softmax(q k^T / sqrt(d))``             ``(x, q, k, v) -> (x, a, v)``
out   W_o        ``x = x + (a v) @ W_o^T + b``                ``(x, a, v) -> x``
ln2   scale/bias ``h2 = LN(x)``                               ``x -> (x, h2)``
mlp   W1, W2     ``x = x + W2 gelu(W1 h2 + b1) + b2``         ``(x, h2) -> x``
====  =========  ==========================================  ===============

Residual streams are threaded *between* sublayers as tuple activations, so a
policy may place the enclave boundary anywhere inside a block: the shielded
runtime passes every stream across the boundary and the cost model charges
each stream's bytes (`Layer.tee_memory_bytes` sums multi-stream signatures).

Each sublayer carries ``block``/``role`` metadata which
:meth:`repro.core.policy.ModelLayout.of` turns into ``blockN.role``
addresses for :class:`~repro.core.policy.BlockSelector` and
:class:`~repro.core.policy.PeltaPolicy`.

All forward math is composed from the double-backward-safe primitives in
:mod:`repro.autodiff` (``bmm``, ``softmax_lastaxis``, ``layer_norm``,
``gelu``), so DRIA can differentiate through a shielded transformer's own
backward pass exactly as it does for the conv zoo.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autodiff import Tensor, functional as F, ops
from . import init as initializers
from .layers import Layer

__all__ = [
    "PatchEmbed",
    "TokenEmbed",
    "LayerNorm",
    "QKVProjection",
    "AttentionSoftmax",
    "AttentionOutput",
    "MLPBlock",
    "MeanPoolHead",
]


def _tokens(signature) -> Tuple[int, int]:
    """Extract ``(T, D)`` from a ``(T, D)`` or ``((T, D), ...)`` signature."""
    shapes = Layer._signature_shapes(signature)
    t, d = shapes[0]
    return int(t), int(d)


class PatchEmbed(Layer):
    """Image-to-token embedding: non-overlapping patches -> linear -> + pos.

    Input ``(C, H, W)`` per sample; output ``(T, D)`` tokens with
    ``T = (H / patch) * (W / patch)``.
    """

    def __init__(self, dim: int, patch: int, name: str = "") -> None:
        super().__init__(name=name)
        self.dim = int(dim)
        self.patch = int(patch)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c, h, w = input_shape
        p = self.patch
        if h % p or w % p:
            raise ValueError(f"PatchEmbed {self.name!r}: {h}x{w} must divide {p}")
        tokens = (h // p) * (w // p)
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((self.dim, c * p * p), rng),
                requires_grad=True,
            ),
            "bias": Tensor(initializers.zeros((self.dim,)), requires_grad=True),
            "pos": Tensor(
                0.02 * rng.standard_normal((tokens, self.dim)), requires_grad=True
            ),
        }
        self.input_shape = tuple(input_shape)
        self.output_shape = (tokens, self.dim)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        c, h, w = self.input_shape
        p = self.patch
        hp, wp = h // p, w // p
        t = ops.reshape(x, (n, c, hp, p, wp, p))
        t = ops.transpose(t, (0, 2, 4, 1, 3, 5))          # (N, hp, wp, C, p, p)
        t = ops.reshape(t, (n * hp * wp, c * p * p))
        t = F.linear(t, self.params["weight"], self.params["bias"])
        out = ops.reshape(t, (n, hp * wp, self.dim))
        return ops.add(out, self.params["pos"])

    def flops_per_sample(self) -> float:
        tokens, dim = self.output_shape
        c, _, _ = self.input_shape
        return 2.0 * tokens * dim * c * self.patch * self.patch


class TokenEmbed(Layer):
    """Token embedding for sequence inputs: one-hot rows -> linear -> + pos.

    Input ``(T, V)`` one-hot (or soft) token rows; output ``(T, D)``.
    """

    def __init__(self, dim: int, name: str = "") -> None:
        super().__init__(name=name)
        self.dim = int(dim)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        t, v = input_shape
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((self.dim, v), rng), requires_grad=True
            ),
            "bias": Tensor(initializers.zeros((self.dim,)), requires_grad=True),
            "pos": Tensor(
                0.02 * rng.standard_normal((t, self.dim)), requires_grad=True
            ),
        }
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(t), self.dim)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        n, t, v = x.shape[0], *self.input_shape
        flat = ops.reshape(x, (n * t, v))
        proj = F.linear(flat, self.params["weight"], self.params["bias"])
        out = ops.reshape(proj, (n, t, self.dim))
        return ops.add(out, self.params["pos"])

    def flops_per_sample(self) -> float:
        t, v = self.input_shape
        return 2.0 * t * self.dim * v


class LayerNorm(Layer):
    """Layer normalisation over the embedding axis.

    With ``carry_residual`` (the in-block ``ln1``/``ln2`` roles) the input
    stream is passed through alongside the normalised stream so the residual
    add downstream needs no skip connection across sublayer boundaries:
    ``x -> (x, LN(x))``.  Without it (a final pre-head norm) it is a plain
    ``x -> LN(x)`` layer.
    """

    def __init__(
        self,
        carry_residual: bool = False,
        eps: float = 1e-5,
        name: str = "",
        block: Optional[str] = None,
        role: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.carry_residual = bool(carry_residual)
        self.eps = float(eps)
        self.block = block
        self.role = role

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        self.params = {
            "weight": Tensor(np.ones(d), requires_grad=True),
            "bias": Tensor(initializers.zeros((d,)), requires_grad=True),
        }
        self.input_shape = (t, d)
        self.output_shape = ((t, d), (t, d)) if self.carry_residual else (t, d)
        self.built = True

    def forward(self, x: Tensor):
        h = F.layer_norm(x, self.params["weight"], self.params["bias"], eps=self.eps)
        return (x, h) if self.carry_residual else h

    def flops_per_sample(self) -> float:
        t, d = _tokens(self.input_shape)
        return 8.0 * t * d


class QKVProjection(Layer):
    """Fused query/key/value projection: ``(x, h) -> (x, q, k, v)``."""

    def __init__(
        self, name: str = "", block: Optional[str] = None, role: Optional[str] = None
    ) -> None:
        super().__init__(name=name)
        self.block = block
        self.role = role

    def build(self, input_shape, rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((3 * d, d), rng), requires_grad=True
            ),
            "bias": Tensor(initializers.zeros((3 * d,)), requires_grad=True),
        }
        self.input_shape = ((t, d), (t, d))
        self.output_shape = ((t, d), (t, d), (t, d), (t, d))
        self.built = True

    def forward(self, streams):
        x, h = streams
        t, d = _tokens(self.input_shape)
        n = h.shape[0]
        flat = ops.reshape(h, (n * t, d))
        pre = F.linear(flat, self.params["weight"], self.params["bias"])
        pre = ops.reshape(pre, (n, t, 3 * d))
        q = ops.getitem(pre, (slice(None), slice(None), slice(0, d)))
        k = ops.getitem(pre, (slice(None), slice(None), slice(d, 2 * d)))
        v = ops.getitem(pre, (slice(None), slice(None), slice(2 * d, 3 * d)))
        return (x, q, k, v)

    def flops_per_sample(self) -> float:
        t, d = _tokens(self.input_shape)
        return 2.0 * t * 3 * d * d


class AttentionSoftmax(Layer):
    """Scaled dot-product attention weights: ``(x, q, k, v) -> (x, a, v)``.

    Parameter-free — this is the sublayer Pelta shields, and under the MIA
    feature extractor it contributes no gradient features (like MaxPool in
    the conv zoo).
    """

    def __init__(
        self, name: str = "", block: Optional[str] = None, role: Optional[str] = None
    ) -> None:
        super().__init__(name=name)
        self.block = block
        self.role = role

    def build(self, input_shape, rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        self.input_shape = ((t, d), (t, d), (t, d), (t, d))
        self.output_shape = ((t, d), (t, t), (t, d))
        self.built = True

    def forward(self, streams):
        x, q, k, v = streams
        a = F.attention_weights(q, k)
        return (x, a, v)

    def flops_per_sample(self) -> float:
        t, d = _tokens(self.input_shape)
        return 2.0 * t * t * d + 5.0 * t * t


class AttentionOutput(Layer):
    """Attention value mix + output projection + residual:
    ``(x, a, v) -> x + (a v) @ W_o^T + b``."""

    def __init__(
        self, name: str = "", block: Optional[str] = None, role: Optional[str] = None
    ) -> None:
        super().__init__(name=name)
        self.block = block
        self.role = role

    def build(self, input_shape, rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((d, d), rng), requires_grad=True
            ),
            "bias": Tensor(initializers.zeros((d,)), requires_grad=True),
        }
        self.input_shape = ((t, d), (t, t), (t, d))
        self.output_shape = (t, d)
        self.built = True

    def forward(self, streams):
        x, a, v = streams
        t, d = self.output_shape
        n = x.shape[0]
        mixed = ops.bmm(a, v)                              # (N, T, D)
        flat = ops.reshape(mixed, (n * t, d))
        proj = F.linear(flat, self.params["weight"], self.params["bias"])
        proj = ops.reshape(proj, (n, t, d))
        return ops.add(x, proj)

    def flops_per_sample(self) -> float:
        t, d = self.output_shape
        return 2.0 * t * t * d + 2.0 * t * d * d


class MLPBlock(Layer):
    """Position-wise feed-forward with GELU and residual:
    ``(x, h) -> x + W2 gelu(W1 h + b1) + b2``."""

    def __init__(
        self,
        hidden: Optional[int] = None,
        name: str = "",
        block: Optional[str] = None,
        role: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.hidden = hidden if hidden is None else int(hidden)
        self.block = block
        self.role = role

    def build(self, input_shape, rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        hidden = self.hidden or 2 * d
        self.hidden = hidden
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((hidden, d), rng), requires_grad=True
            ),
            "bias": Tensor(initializers.zeros((hidden,)), requires_grad=True),
            "weight2": Tensor(
                initializers.glorot_uniform((d, hidden), rng), requires_grad=True
            ),
            "bias2": Tensor(initializers.zeros((d,)), requires_grad=True),
        }
        self.input_shape = ((t, d), (t, d))
        self.output_shape = (t, d)
        self.built = True

    def forward(self, streams):
        x, h = streams
        t, d = self.output_shape
        n = h.shape[0]
        flat = ops.reshape(h, (n * t, d))
        up = F.gelu(F.linear(flat, self.params["weight"], self.params["bias"]))
        down = F.linear(up, self.params["weight2"], self.params["bias2"])
        down = ops.reshape(down, (n, t, d))
        return ops.add(x, down)

    def flops_per_sample(self) -> float:
        t, d = self.output_shape
        return 4.0 * t * d * self.hidden + 10.0 * t * self.hidden


class MeanPoolHead(Layer):
    """Classification head: mean-pool over tokens, then a linear map."""

    def __init__(self, units: int, name: str = "") -> None:
        super().__init__(name=name)
        self.units = int(units)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        t, d = _tokens(input_shape)
        self.params = {
            "weight": Tensor(
                initializers.glorot_uniform((self.units, d), rng), requires_grad=True
            ),
            "bias": Tensor(initializers.zeros((self.units,)), requires_grad=True),
        }
        self.input_shape = (t, d)
        self.output_shape = (self.units,)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        pooled = ops.mean(x, axis=1)                       # (N, D)
        return F.linear(pooled, self.params["weight"], self.params["bias"])

    def flops_per_sample(self) -> float:
        t, d = self.input_shape
        return t * d + 2.0 * self.units * d
