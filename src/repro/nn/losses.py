"""Label encoding for the cross-entropy loss (``functional.cross_entropy``)."""

from __future__ import annotations

import numpy as np

__all__ = ["one_hot"]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as a one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError("labels out of range for one_hot encoding")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out

