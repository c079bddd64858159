"""Datasets: containers, batching and the synthetic CIFAR-100 / LFW stand-ins."""

from .. import _lazy_exports

__all__ = [
    "ArrayDataset",
    "Batch",
    "synthetic_cifar",
    "synthetic_lfw",
    "class_prototypes",
    "normalize",
    "image_loss",
    "flatten_samples",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "datasets": ("ArrayDataset", "Batch"),
    "synthetic": ("class_prototypes", "synthetic_cifar", "synthetic_lfw"),
    "transforms": ("flatten_samples", "image_loss", "normalize"),
})
