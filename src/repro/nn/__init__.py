"""Numpy neural-network framework (the Darknet/DarkneTZ stand-in).

Provides the layers, models, losses and optimisers that the GradSec core
(:mod:`repro.core`) partitions between the normal world and the TrustZone
enclave.
"""

from .attention import (
    AttentionOutput,
    AttentionSoftmax,
    LayerNorm,
    MLPBlock,
    MeanPoolHead,
    PatchEmbed,
    QKVProjection,
    TokenEmbed,
)
from .layers import ACTIVATIONS, Conv2D, Dense, Flatten, Layer, MaxPool2D
from .losses import CategoricalCrossEntropy, MeanSquaredError, one_hot
from .model import Sequential
from .optim import SGD, Adam, Optimizer
from .serialize import (
    flatten_weights,
    load_weights,
    save_weights,
    unflatten_weights,
    weights_from_bytes,
    weights_to_bytes,
)
from .zoo import alexnet, gpt_tiny, lenet5, mlp, vit_tiny

__all__ = [
    "Layer", "Conv2D", "Dense", "MaxPool2D", "Flatten",
    "ACTIVATIONS", "Sequential",
    "PatchEmbed", "TokenEmbed", "LayerNorm", "QKVProjection",
    "AttentionSoftmax", "AttentionOutput", "MLPBlock", "MeanPoolHead",
    "CategoricalCrossEntropy", "MeanSquaredError", "one_hot",
    "Optimizer", "SGD", "Adam",
    "weights_to_bytes", "weights_from_bytes", "save_weights", "load_weights",
    "flatten_weights", "unflatten_weights",
    "lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny",
]
