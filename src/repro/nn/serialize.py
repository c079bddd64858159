"""Weight (de)serialisation.

The FL transport and the TrustZone secure storage both move model weights as
flat byte blobs; these helpers define that canonical encoding.
"""

from __future__ import annotations

import io
from typing import Dict, List

import numpy as np

from .model import WeightsList

__all__ = [
    "weights_to_bytes",
    "weights_from_bytes",
    "flatten_weights",
    "unflatten_weights",
]


def weights_to_bytes(weights: WeightsList) -> bytes:
    """Serialise per-layer weight dicts to an ``.npz`` byte blob."""
    arrays: Dict[str, np.ndarray] = {}
    for i, layer_weights in enumerate(weights):
        for key, value in layer_weights.items():
            arrays[f"{i}/{key}"] = value
    arrays["__n_layers__"] = np.array(len(weights))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def weights_from_bytes(blob: bytes) -> WeightsList:
    """Inverse of :func:`weights_to_bytes`."""
    with np.load(io.BytesIO(blob)) as archive:
        n_layers = int(archive["__n_layers__"])
        weights: WeightsList = [dict() for _ in range(n_layers)]
        for key in archive.files:
            if key == "__n_layers__":
                continue
            index, name = key.split("/", 1)
            weights[int(index)][name] = archive[key]
    return weights


def flatten_weights(weights: WeightsList) -> np.ndarray:
    """Concatenate all weights into one 1-D vector (stable order)."""
    parts: List[np.ndarray] = []
    for layer_weights in weights:
        for key in sorted(layer_weights):
            parts.append(np.asarray(layer_weights[key]).ravel())
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def unflatten_weights(vector: np.ndarray, template: WeightsList) -> WeightsList:
    """Reshape a flat vector back into ``template``'s structure."""
    vector = np.asarray(vector)
    needed = int(
        sum(np.asarray(v).size for layer in template for v in layer.values())
    )
    if vector.size != needed:
        raise ValueError(
            f"vector has {vector.size} elements but template needs {needed}"
        )
    out: WeightsList = []
    cursor = 0
    for layer_weights in template:
        rebuilt: Dict[str, np.ndarray] = {}
        for key in sorted(layer_weights):
            shape = np.asarray(layer_weights[key]).shape
            size = int(np.prod(shape)) if shape else 1
            rebuilt[key] = vector[cursor : cursor + size].reshape(shape)
            cursor += size
        out.append(rebuilt)
    return out
