"""The DRIA success metric: ImageLoss between a reconstruction and its original."""

from __future__ import annotations

import numpy as np

__all__ = ["image_loss"]


def image_loss(reconstructed: np.ndarray, original: np.ndarray) -> float:
    """The paper's DRIA success metric: Euclidean distance between images.

    Lower is better for the attacker; the paper treats ImageLoss < 1 as a
    successful reconstruction (Table 1).
    """
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    if reconstructed.shape != original.shape:
        raise ValueError(
            f"shape mismatch: {reconstructed.shape} vs {original.shape}"
        )
    return float(np.linalg.norm(reconstructed - original))
