"""Numpy neural-network framework (the Darknet/DarkneTZ stand-in).

Provides the layers, models, losses and optimisers that the GradSec core
(:mod:`repro.core`) partitions between the normal world and the TrustZone
enclave.
"""

from .. import _lazy_exports

__all__ = [
    "Layer", "Conv2D", "Dense", "Flatten",
    "ACTIVATIONS", "Sequential",
    "PatchEmbed", "TokenEmbed", "LayerNorm", "QKVProjection",
    "AttentionSoftmax", "AttentionOutput", "MLPBlock", "MeanPoolHead",
    "one_hot",
    "Optimizer", "SGD", "Adam",
    "weights_to_bytes", "weights_from_bytes", "save_weights", "load_weights",
    "flatten_weights", "unflatten_weights",
    "lenet5", "alexnet", "mlp", "vit_tiny", "gpt_tiny",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "attention": (
        "AttentionOutput",
        "AttentionSoftmax",
        "LayerNorm",
        "MLPBlock",
        "MeanPoolHead",
        "PatchEmbed",
        "QKVProjection",
        "TokenEmbed",
    ),
    "layers": ("ACTIVATIONS", "Conv2D", "Dense", "Flatten", "Layer"),
    "losses": ("one_hot",),
    "model": ("Sequential",),
    "optim": ("SGD", "Adam", "Optimizer"),
    "serialize": (
        "flatten_weights",
        "load_weights",
        "save_weights",
        "unflatten_weights",
        "weights_from_bytes",
        "weights_to_bytes",
    ),
    "zoo": ("alexnet", "gpt_tiny", "lenet5", "mlp", "vit_tiny"),
})
