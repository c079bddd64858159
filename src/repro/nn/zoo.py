"""Model zoo: the two architectures of the paper's Table 4.

Both factories reproduce the table layer-for-layer.  Note one inconsistency
in the paper itself: LeNet-5's L1 is listed as ``5*5/2/0`` but its declared
output is 16x16x12, which requires padding 2; we follow the declared output
sizes (they are what the dense layer's 768 inputs and all the memory/time
numbers in Table 6 are computed from).

A ``scale`` argument lets tests and CI-speed benchmarks shrink the channel
counts while preserving the layer structure (same depth, same conv/dense
split), which is all the protection policies care about.
"""

from __future__ import annotations

from typing import List, Sequence

from .layers import Conv2D, Dense, Layer
from .model import Sequential

__all__ = ["lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny"]


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def lenet5(
    num_classes: int = 100,
    input_shape: Sequence[int] = (3, 32, 32),
    activation: str = "sigmoid",
    seed: int = 0,
    scale: float = 1.0,
) -> Sequential:
    """LeNet-5 variant of Table 4: four 12-filter conv layers + one dense.

    The default sigmoid activation matches the DLG attack setting (the DRIA
    reference implementation uses sigmoid because ReLU's zero second
    derivative stalls gradient matching).
    """
    f = _scaled(12, scale)
    layers = [
        Conv2D(f, 5, stride=2, pad=2, activation=activation, name="L1"),
        Conv2D(f, 5, stride=2, pad=2, activation=activation, name="L2"),
        Conv2D(f, 5, stride=1, pad=2, activation=activation, name="L3"),
        Conv2D(f, 5, stride=1, pad=2, activation=activation, name="L4"),
        Dense(num_classes, activation="linear", name="L5"),
    ]
    return Sequential(layers, input_shape, seed=seed, name="lenet5")


def alexnet(
    num_classes: int = 100,
    input_shape: Sequence[int] = (3, 32, 32),
    activation: str = "relu",
    seed: int = 0,
    scale: float = 1.0,
) -> Sequential:
    """AlexNet variant of Table 4: five conv layers (3 with MP2) + three dense."""
    c1 = _scaled(64, scale)
    c2 = _scaled(192, scale)
    c3 = _scaled(384, scale)
    c4 = _scaled(256, scale)
    c5 = _scaled(256, scale)
    d = _scaled(4096, scale)
    layers = [
        Conv2D(c1, 3, stride=2, pad=1, activation=activation, pool=2, name="L1"),
        Conv2D(c2, 3, stride=1, pad=1, activation=activation, pool=2, name="L2"),
        Conv2D(c3, 3, stride=1, pad=1, activation=activation, name="L3"),
        Conv2D(c4, 3, stride=1, pad=1, activation=activation, name="L4"),
        Conv2D(c5, 3, stride=1, pad=1, activation=activation, pool=2, name="L5"),
        Dense(d, activation=activation, name="L6"),
        Dense(d, activation=activation, name="L7"),
        Dense(num_classes, activation="linear", name="L8"),
    ]
    return Sequential(layers, input_shape, seed=seed, name="alexnet")


def mlp(
    num_classes: int,
    input_shape: Sequence[int],
    hidden: Sequence[int] = (64, 32),
    activation: str = "sigmoid",
    seed: int = 0,
) -> Sequential:
    """Small fully-connected model used by unit tests and examples."""
    layers = [
        Dense(width, activation=activation, name=f"L{i + 1}")
        for i, width in enumerate(hidden)
    ]
    layers.append(Dense(num_classes, activation="linear", name=f"L{len(hidden) + 1}"))
    return Sequential(layers, input_shape, seed=seed, name="mlp")


def _transformer_blocks(num_blocks: int, hidden: int) -> List[Layer]:
    """The six flat sublayers of each pre-LN transformer block."""
    from .attention import (
        AttentionOutput,
        AttentionSoftmax,
        LayerNorm,
        MLPBlock,
        QKVProjection,
    )

    layers: List[Layer] = []
    for i in range(1, num_blocks + 1):
        block = f"block{i}"
        layers.extend(
            [
                LayerNorm(
                    carry_residual=True,
                    name=f"{block}.ln1",
                    block=block,
                    role="ln1",
                ),
                QKVProjection(name=f"{block}.qkv", block=block, role="qkv"),
                AttentionSoftmax(
                    name=f"{block}.softmax", block=block, role="softmax"
                ),
                AttentionOutput(
                    name=f"{block}.attn_out", block=block, role="attn_out"
                ),
                LayerNorm(
                    carry_residual=True,
                    name=f"{block}.ln2",
                    block=block,
                    role="ln2",
                ),
                MLPBlock(
                    hidden=hidden, name=f"{block}.mlp", block=block, role="mlp"
                ),
            ]
        )
    return layers


def vit_tiny(
    num_classes: int = 10,
    input_shape: Sequence[int] = (3, 32, 32),
    dim: int = 16,
    patch: int = 8,
    num_blocks: int = 2,
    seed: int = 0,
    scale: float = 1.0,
) -> Sequential:
    """Tiny vision transformer: patch embed, pre-LN blocks, mean-pool head.

    Each block is six flat, individually shieldable sublayers (see
    :mod:`repro.nn.attention`), so protection policies can address e.g.
    ``block2.softmax`` — the Pelta protection unit — exactly as they address
    ``L2`` in the conv zoo.  ``scale`` shrinks the embedding width for
    CI-speed runs while preserving the block structure.
    """
    from .attention import LayerNorm, MeanPoolHead, PatchEmbed

    d = max(4, int(round(dim * scale)))
    d -= d % 2  # keep the width even so QKV splits cleanly
    layers: List[Layer] = [PatchEmbed(d, patch, name="embed")]
    layers.extend(_transformer_blocks(num_blocks, hidden=2 * d))
    layers.append(LayerNorm(carry_residual=False, name="ln_f"))
    layers.append(MeanPoolHead(num_classes, name="head"))
    return Sequential(layers, input_shape, seed=seed, name="vit_tiny")


def gpt_tiny(
    num_classes: int = 10,
    input_shape: Sequence[int] = (12, 32),
    dim: int = 16,
    num_blocks: int = 2,
    seed: int = 0,
    scale: float = 1.0,
) -> Sequential:
    """Tiny GPT-style sequence classifier over one-hot token rows.

    Input is ``(T, V)`` per sample — a length-``T`` sequence of one-hot (or
    soft) rows over a ``V``-symbol vocabulary — embedded with a learned
    projection + positional table, run through pre-LN attention blocks, and
    mean-pooled into a class score.  Same six-sublayer block structure as
    :func:`vit_tiny`.
    """
    from .attention import LayerNorm, MeanPoolHead, TokenEmbed

    d = max(4, int(round(dim * scale)))
    d -= d % 2
    layers: List[Layer] = [TokenEmbed(d, name="embed")]
    layers.extend(_transformer_blocks(num_blocks, hidden=2 * d))
    layers.append(LayerNorm(carry_residual=False, name="ln_f"))
    layers.append(MeanPoolHead(num_classes, name="head"))
    return Sequential(layers, input_shape, seed=seed, name="gpt_tiny")


#: The entries a simulated fleet can train (``repro simulate --model``).
MODEL_CHOICES = ("lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny")


def by_name(name: str, seed: int = 0, num_classes: int = 10) -> Sequential:
    """The zoo entry ``name`` (``mlp`` over a 6-feature input)."""
    if name not in MODEL_CHOICES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_CHOICES}")
    if name == "mlp":
        return mlp(num_classes=num_classes, input_shape=(6,), seed=seed)
    return globals()[name](num_classes=num_classes, seed=seed)
