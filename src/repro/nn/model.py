"""Sequential model container (the Darknet stand-in).

A :class:`Sequential` is a flat list of layers — the same mental model as
Darknet/DarkneTZ, where protection policies are expressed as sets of layer
indices (1-based ``L1 .. Ln`` in the paper).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..autodiff import Tensor, functional as F, grad
from .layers import Layer

__all__ = ["Sequential"]

WeightsList = List[Dict[str, np.ndarray]]


class Sequential:
    """A feed-forward stack of layers with per-layer gradient access.

    Parameters
    ----------
    layers:
        The layer instances, in forward order.
    input_shape:
        Per-sample input shape, e.g. ``(3, 32, 32)`` for CIFAR-like images.
    seed:
        Seed for weight initialisation (a fresh ``default_rng`` is derived).
    name:
        Human-readable model name (used in logs and attestation).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: Sequence[int],
        seed: int = 0,
        name: str = "model",
    ) -> None:
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        shape = self.input_shape
        for index, layer in enumerate(self.layers):
            if not layer.name or layer.name == type(layer).__name__.lower():
                layer.name = f"L{index + 1}"
            layer.build(shape, rng)
            shape = layer.output_shape
        self.output_shape = shape

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which is the precision the model trains at.

        A model is built float64; :meth:`astype` makes a copy at another
        precision.  A parameter-free model reads float64.
        """
        for layer in self.layers:
            for param in layer.params.values():
                return param.data.dtype
        return np.dtype(np.float64)

    def layer(self, index: int) -> Layer:
        """Return a layer by the paper's 1-based index (L1 = first layer)."""
        if not 1 <= index <= len(self.layers):
            raise IndexError(f"layer index {index} outside 1..{len(self.layers)}")
        return self.layers[index - 1]

    def layout(self):
        """Structured addressing view of this model's layers.

        Returns the :class:`repro.core.policy.ModelLayout` that lets
        protection policies address layers by name, block, or
        ``block.role`` selector instead of a raw 1-based index.
        """
        from ..core.policy import ModelLayout

        return ModelLayout.of(self)

    def summary(self) -> str:
        """Table-4-style architecture description."""
        rows = [f"{self.name} (input {self.input_shape})"]
        for i, layer in enumerate(self.layers):
            rows.append(
                f"  L{i + 1} {type(layer).__name__:<10} "
                f"in={layer.input_shape} out={layer.output_shape} "
                f"params={layer.param_count}"
            )
        rows.append(f"  total params: {self.param_count}")
        return "\n".join(rows)

    def architecture_digest(self) -> str:
        """Deterministic hash of the architecture (used by attestation)."""
        blob = json.dumps(
            [layer.config() for layer in self.layers], sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------
    # Forward / loss / gradients
    # ------------------------------------------------------------------
    def forward(self, x: Union[np.ndarray, Tensor]) -> Tensor:
        """Logits for a batch; an array batch is cast to the model's dtype."""
        out = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))
        for layer in self.layers:
            out = layer(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.forward(x).data.argmax(axis=1)

    def accuracy(self, x: np.ndarray, y_onehot: np.ndarray) -> float:
        """Top-1 accuracy against one-hot labels."""
        return float((self.predict(x) == y_onehot.argmax(axis=1)).mean())

    def loss(self, x: Union[np.ndarray, Tensor], y_onehot: np.ndarray) -> Tensor:
        """Mean categorical cross-entropy on a batch."""
        return F.cross_entropy(
            self.forward(x), Tensor(np.asarray(y_onehot, dtype=self.dtype))
        )

    def loss_and_gradients(
        self,
        x: Union[np.ndarray, Tensor],
        y_onehot: np.ndarray,
        create_graph: bool = False,
    ):
        """Compute the loss and per-layer weight gradients.

        Returns
        -------
        (loss, grads):
            ``loss`` is a scalar Tensor; ``grads`` is a list aligned with
            ``self.layers`` of ``{param_name: Tensor}`` dicts (empty for
            parameter-free layers).
        """
        loss = self.loss(x, y_onehot)
        params: List[Tensor] = []
        index: List[tuple] = []
        for li, layer in enumerate(self.layers):
            for key in sorted(layer.params):
                params.append(layer.params[key])
                index.append((li, key))
        flat = grad(loss, params, create_graph=create_graph) if params else ()
        grads: List[Dict[str, Tensor]] = [dict() for _ in self.layers]
        for (li, key), g in zip(index, flat):
            grads[li][key] = g
        return loss, grads

    def gradients_array(
        self, x: np.ndarray, y_onehot: np.ndarray
    ) -> List[Dict[str, np.ndarray]]:
        """Per-layer weight gradients as plain arrays (attacker-facing view)."""
        _, grads = self.loss_and_gradients(x, y_onehot)
        return [{k: v.data.copy() for k, v in g.items()} for g in grads]

    # ------------------------------------------------------------------
    # Weight management
    # ------------------------------------------------------------------
    def get_weights(self) -> WeightsList:
        """Per-layer weight dicts (deep copies)."""
        return [layer.get_weights() for layer in self.layers]

    def set_weights(self, weights: WeightsList) -> None:
        """Load per-layer weight dicts produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer weight dicts, got {len(weights)}"
            )
        for layer, w in zip(self.layers, weights):
            layer.set_weights(w)

    def clone(self, seed: Optional[int] = None) -> "Sequential":
        """Structural copy carrying the current weights at their dtype."""
        import copy

        blueprint = [copy.deepcopy(layer) for layer in self.layers]
        for layer in blueprint:
            layer.built = False
            layer.params = {}
        twin = Sequential(
            blueprint,
            self.input_shape,
            seed=self.seed if seed is None else seed,
            name=self.name,
        )
        _cast_parameters(twin, self.dtype)
        twin.set_weights(self.get_weights())
        return twin

    def astype(self, dtype) -> "Sequential":
        """Copy of this model with every parameter converted to ``dtype``."""
        twin = self.clone()
        _cast_parameters(twin, dtype)
        return twin


def _cast_parameters(model: Sequential, dtype) -> None:
    """Convert ``model``'s parameters to ``dtype`` in place."""
    for layer in model.layers:
        for param in layer.params.values():
            param.data = param.data.astype(dtype, copy=False)
