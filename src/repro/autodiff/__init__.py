"""Reverse-mode autodiff engine with double-backward support.

The engine is the substrate for :mod:`repro.nn` (the Darknet stand-in) and
for the DRIA attack, which differentiates through the model's gradient
computation.
"""

from .. import _lazy_exports

__all__ = [
    "Tensor",
    "as_tensor",
    "grad",
    "ops",
    "functional",
    "check_gradients",
    "numerical_gradient",
    "conv2d_fused",
    "Workspace",
    "get_workspace",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "functional": ("functional",),
    "ops": ("ops",),
    "fused": ("conv2d_fused",),
    "gradcheck": ("check_gradients", "numerical_gradient"),
    "tensor": ("Tensor", "as_tensor", "grad"),
    "workspace": ("Workspace", "get_workspace"),
})
