"""Neural-network layers.

The layer abstraction mirrors the Darknet framework that DarkneTZ (and hence
GradSec) builds on: a model is a flat list of layers, each owning its weight
tensors and exposing the quantities the paper's Table 2 names — ``W_l``
(weights), ``A_{l-1}`` (input), ``Z_l`` (pre-activation output), ``dW_l``
(weight gradients) and ``delta_l`` — so that the TEE cost model and the
leakage analysis can account for each of them.

Every layer also reports the metadata the TrustZone cost model needs:
``weight_param_count`` (drives enclave allocation time), per-sample FLOPs
(drives user/kernel CPU time), and ``tee_memory_bytes`` (the secure-memory
footprint when the layer is shielded).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, functional as F, ops
from ..autodiff.fused import check_conv_geometry
from . import init as initializers

__all__ = ["Layer", "Conv2D", "Dense", "Flatten", "ACTIVATIONS"]

ACTIVATIONS = {
    "linear": lambda t: t,
    "relu": ops.relu,
    "sigmoid": ops.sigmoid,
    "tanh": ops.tanh,
}

_FLOAT_BYTES = 4  # the paper's device trains in float32


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`build` (shape inference + weight creation)
    and :meth:`forward`.  After :meth:`build`, ``input_shape`` and
    ``output_shape`` are per-sample shapes (no batch dimension).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__.lower()
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        self.params: Dict[str, Tensor] = {}
        # Structured-policy metadata: transformer sublayers set these so
        # ``ModelLayout.of`` can address them as ``block.role``; conv/fc
        # layers leave them None and stay flat-addressed.
        self.block: Optional[str] = None
        self.role: Optional[str] = None

    # -- lifecycle ------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        if not self.built:
            raise RuntimeError(f"layer {self.name!r} used before build()")
        return self.forward(x)

    # -- weights --------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """Trainable tensors in a stable order."""
        return [self.params[k] for k in sorted(self.params)]

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Copy of all weights as plain arrays."""
        return {k: v.data.copy() for k, v in self.params.items()}

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load weights in-place (shapes must match), at each parameter's dtype."""
        for key, value in weights.items():
            if key not in self.params:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            current = self.params[key]
            value = np.asarray(value)
            if value.shape != current.data.shape:
                raise ValueError(
                    f"shape mismatch for {self.name}.{key}: "
                    f"{value.shape} vs {current.data.shape}"
                )
            current.data = value.astype(current.data.dtype)

    # -- cost-model metadata ---------------------------------------------
    @property
    def weight_param_count(self) -> int:
        """Number of *weight* parameters (excludes biases).

        The paper's enclave allocation-time model is driven by the number of
        weight parameters transferred through the trusted I/O path.
        """
        return int(self.params["weight"].size) if "weight" in self.params else 0

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def flops_per_sample(self) -> float:
        """Approximate forward-pass multiply-accumulate FLOPs per sample."""
        raise NotImplementedError

    @staticmethod
    def _signature_shapes(signature) -> Tuple[Tuple[int, ...], ...]:
        """Normalise a shape-or-tuple-of-shapes signature to a shape tuple.

        Single-tensor layers keep plain per-sample shapes like ``(3, 32, 32)``;
        transformer sublayers that pass residual streams between each other
        declare nested signatures like ``((T, D), (T, D))``.
        """
        if signature and isinstance(signature[0], (tuple, list)):
            return tuple(tuple(s) for s in signature)
        return (tuple(signature),)

    def input_elems(self) -> int:
        """Per-sample element count summed across all input streams."""
        return int(sum(np.prod(s) for s in self._signature_shapes(self.input_shape)))

    def output_elems(self) -> int:
        """Per-sample element count summed across all output streams."""
        return int(sum(np.prod(s) for s in self._signature_shapes(self.output_shape)))

    def tee_memory_bytes(self, batch_size: int) -> int:
        """Secure-memory footprint when this layer is shielded.

        Accounts for ``W + dW + A_{l-1} + Z_l + delta_l`` in float32, which
        reproduces the paper's per-layer TEE memory numbers (Table 6) from
        shapes alone.  Multi-stream layers charge the summed element count of
        every activation stream crossing the enclave boundary.
        """
        if not self.built:
            raise RuntimeError(f"layer {self.name!r} not built")
        in_elems = self.input_elems() * batch_size
        out_elems = self.output_elems() * batch_size
        weights = self.param_count
        return _FLOAT_BYTES * (2 * weights + in_elems + 2 * out_elems)

    def config(self) -> dict:
        """Lightweight description used for attestation measurements."""
        return {"type": type(self).__name__, "name": self.name}


class Conv2D(Layer):
    """2-D convolution with optional fused activation and 2x2 max-pool.

    The fused pool mirrors the paper's Table 4, where e.g. AlexNet's L1 is a
    single "Conv2D + MP2" layer.

    Parameters
    ----------
    filters: number of output channels.
    kernel_size: square kernel side.
    stride, pad: convolution stride and zero padding.
    activation: one of :data:`ACTIVATIONS`.
    pool: if set, apply non-overlapping max pooling of this size after the
        activation.
    use_bias: include a bias term.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        activation: str = "sigmoid",
        pool: Optional[int] = None,
        use_bias: bool = True,
        name: str = "",
    ) -> None:
        super().__init__(name=name)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        check_conv_geometry(filters, kernel_size, stride, pad)
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad = int(pad)
        self.activation = activation
        self.pool = int(pool) if pool else None
        self.use_bias = bool(use_bias)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        k = self.kernel_size
        oh = (h + 2 * self.pad - k) // self.stride + 1
        ow = (w + 2 * self.pad - k) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(f"Conv2D {self.name!r}: non-positive output size")
        if self.pool:
            if oh % self.pool or ow % self.pool:
                raise ValueError(
                    f"Conv2D {self.name!r}: pooled dims must divide {self.pool}"
                )
            oh //= self.pool
            ow //= self.pool

        shape = (self.filters, c, k, k)
        initializer = (
            initializers.he_normal if self.activation == "relu" else initializers.glorot_uniform
        )
        self.params = {"weight": Tensor(initializer(shape, rng), requires_grad=True)}
        if self.use_bias:
            self.params["bias"] = Tensor(initializers.zeros((self.filters,)), requires_grad=True)
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.filters, oh, ow)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        out = F.conv2d(
            x,
            self.params["weight"],
            self.params.get("bias"),
            stride=self.stride,
            pad=self.pad,
        )
        out = ACTIVATIONS[self.activation](out)
        if self.pool:
            out = ops.maxpool2d(out, self.pool)
        return out

    def flops_per_sample(self) -> float:
        c = self.input_shape[0]
        f, oh, ow = self.output_shape
        pooled = (self.pool or 1) ** 2
        macs = f * oh * ow * pooled * c * self.kernel_size * self.kernel_size
        return 2.0 * macs

    def config(self) -> dict:
        return {
            "type": "Conv2D",
            "name": self.name,
            "filters": self.filters,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
            "pad": self.pad,
            "activation": self.activation,
            "pool": self.pool,
            "use_bias": self.use_bias,
        }


class Dense(Layer):
    """Fully-connected layer.  Auto-flattens 4-D inputs (Darknet behaviour)."""

    def __init__(
        self,
        units: int,
        activation: str = "linear",
        use_bias: bool = True,
        name: str = "",
    ) -> None:
        super().__init__(name=name)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.units = int(units)
        self.activation = activation
        self.use_bias = bool(use_bias)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        in_features = int(np.prod(input_shape))
        shape = (self.units, in_features)
        initializer = (
            initializers.he_normal if self.activation == "relu" else initializers.glorot_uniform
        )
        self.params = {"weight": Tensor(initializer(shape, rng), requires_grad=True)}
        if self.use_bias:
            self.params["bias"] = Tensor(initializers.zeros((self.units,)), requires_grad=True)
        self.input_shape = (in_features,)
        self.output_shape = (self.units,)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = F.flatten(x)
        out = F.linear(x, self.params["weight"], self.params.get("bias"))
        return ACTIVATIONS[self.activation](out)

    def flops_per_sample(self) -> float:
        return 2.0 * self.params["weight"].size

    def config(self) -> dict:
        return {
            "type": "Dense",
            "name": self.name,
            "units": self.units,
            "activation": self.activation,
            "use_bias": self.use_bias,
        }


class Flatten(Layer):
    """Explicit flatten layer (no parameters)."""

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(np.prod(input_shape)),)
        self.built = True

    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)

    def flops_per_sample(self) -> float:
        return 0.0
