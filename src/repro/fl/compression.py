"""Update compression (top-k sparsification).

Edge FL deployments compress uplink updates; this module provides the
standard top-k sparsifier and the per-coordinate wire widths the serve
codec encodes its output with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["INDEX_WIRE_BYTES", "VALUE_WIRE_BYTES", "SparseUpdate", "TopKCompressor"]

#: Wire width of one kept coordinate: a u32 index plus a float32 value.
#: The serve wire codec (:mod:`repro.serve.wire`) encodes sparse payloads
#: with exactly these widths.
INDEX_WIRE_BYTES = 4
VALUE_WIRE_BYTES = 4


@dataclass(frozen=True)
class SparseUpdate:
    """A compressed flat update: kept coordinates and their values."""

    size: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must align")
        if self.indices.size and int(self.indices.max()) >= self.size:
            raise ValueError("index out of range")


class TopKCompressor:
    """Top-k magnitude sparsification, stateless per update.

    Parameters
    ----------
    ratio:
        Fraction of coordinates kept per update (0 < ratio <= 1).
    """

    def __init__(self, ratio: float = 0.1) -> None:
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = float(ratio)

    def compress(self, update: np.ndarray) -> SparseUpdate:
        """Keep the ``ratio`` largest-magnitude coordinates of ``update``."""
        update = np.asarray(update, dtype=np.float64).ravel()
        k = max(1, int(round(self.ratio * update.size)))
        order = np.argsort(np.abs(update))[::-1]
        kept = np.sort(order[:k])
        return SparseUpdate(update.size, kept, update[kept].copy())

