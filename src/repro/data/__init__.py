"""Datasets: containers, batching and the synthetic CIFAR-100 / LFW stand-ins."""

from .. import _lazy_exports

__all__ = [
    "ArrayDataset",
    "Batch",
    "synthetic_cifar",
    "synthetic_lfw",
    "class_prototypes",
    "image_loss",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "datasets": ("ArrayDataset", "Batch"),
    "synthetic": ("class_prototypes", "synthetic_cifar", "synthetic_lfw"),
    "transforms": ("image_loss",),
})
