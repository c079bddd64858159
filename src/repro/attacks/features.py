"""Gradient feature extraction for the learning-based attacks (MIA, DPIA).

Both attacks train a classifier on per-layer gradient features ("D_grad" in
the paper).  Following the paper's evaluation methodology (§8.1), TEE
protection is reflected by *removing the gradient columns of protected
layers* from the attacker's dataset: those gradients only ever existed in
the enclave.  For dynamic GradSec the missing block changes per cycle, so
missing entries are encoded as NaN and mean-imputed
(:class:`repro.ml.MeanImputer`), exactly as §8.2 describes.

Raw per-layer gradients are too wide for a few-hundred-sample attack
dataset (LeNet-5's L5 alone has 76 800), so each layer contributes a
compact block: per-output-unit L2 norms plus five scalar summary
statistics.  The block layout is fixed by the model architecture, so
columns align across samples and cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.model import Sequential, WeightsList

__all__ = [
    "layer_feature_block",
    "layer_block_sizes",
    "gradient_feature_vector",
    "features_from_weight_grads",
]


def layer_feature_block(weight_grad: np.ndarray) -> np.ndarray:
    """Compact feature block for one layer's weight gradient.

    Per-output-unit L2 norms and signed means (rows for dense layers,
    filters for conv layers), both normalised by the layer's global
    gradient norm so the block captures the *relative pattern* of the
    gradient — stable across FL cycles even as the absolute gradient
    magnitude decays with training — plus the log global norm.
    """
    grad = np.asarray(weight_grad, dtype=np.float64)
    rows = grad.reshape(grad.shape[0], -1)
    per_unit_norm = np.sqrt((rows**2).sum(axis=1))
    total = float(np.sqrt((per_unit_norm**2).sum())) + 1e-12
    per_unit_mean = rows.mean(axis=1) * np.sqrt(rows.shape[1]) / total
    return np.concatenate(
        [per_unit_norm / total, per_unit_mean, [np.log(total)]]
    )


def layer_block_sizes(model: Sequential) -> List[int]:
    """Feature-block width per layer (0 for parameter-free layers)."""
    sizes: List[int] = []
    for layer in model.layers:
        if "weight" in layer.params:
            sizes.append(2 * int(layer.params["weight"].shape[0]) + 1)
        else:
            sizes.append(0)
    return sizes


def features_from_weight_grads(
    model: Sequential,
    per_layer_grads: Sequence[Optional[Dict[str, np.ndarray]]],
    protected: Iterable[int] = (),
) -> np.ndarray:
    """Flat feature vector from per-layer gradient dicts.

    ``per_layer_grads`` is aligned with the model's layers; entries may be
    ``None`` (already hidden).  Layers listed in ``protected`` (1-based) or
    ``None`` contribute NaN blocks, which downstream code drops (static
    protection: same columns always missing) or imputes (dynamic).
    """
    protected_set = set(protected)
    sizes = layer_block_sizes(model)
    parts: List[np.ndarray] = []
    for index, (size, grads) in enumerate(zip(sizes, per_layer_grads), start=1):
        if size == 0:
            continue
        if index in protected_set or grads is None or "weight" not in grads:
            parts.append(np.full(size, np.nan))
        else:
            parts.append(layer_feature_block(grads["weight"]))
    return np.concatenate(parts) if parts else np.zeros(0)


def gradient_feature_vector(
    model: Sequential,
    x: np.ndarray,
    y_onehot: np.ndarray,
    protected: Iterable[int] = (),
) -> np.ndarray:
    """Compute gradients of ``model`` on a batch and featurise them."""
    grads = model.gradients_array(np.asarray(x), np.asarray(y_onehot))
    return features_from_weight_grads(model, grads, protected)
