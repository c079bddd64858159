"""Update compression (top-k sparsification).

Edge FL deployments compress uplink updates; this module provides the
standard top-k sparsifier and the wire encoding the transport layer can
ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "INDEX_WIRE_BYTES",
    "VALUE_WIRE_BYTES",
    "SparseUpdate",
    "TopKCompressor",
    "weighted_sparse_mean",
]

#: Wire width of one kept coordinate: a u32 index plus a float32 value.
#: The serve wire codec (:mod:`repro.serve.wire`) encodes sparse payloads
#: with exactly these widths, so the simulator's uplink pricing and the
#: coordinator service's byte accounting agree on every sparse update.
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

    def densify(self) -> np.ndarray:
        out = np.zeros(self.size)
        out[self.indices] = self.values
        return out

    def wire_bytes(self) -> int:
        """Uplink cost: ``INDEX_WIRE_BYTES`` (u32 index) plus
        ``VALUE_WIRE_BYTES`` (float32 value) per kept coordinate."""
        return int(self.indices.size * (INDEX_WIRE_BYTES + VALUE_WIRE_BYTES))

    def add_scaled_into(self, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Scatter ``scale * values`` into ``out`` without densifying."""
        if out.shape != (self.size,):
            raise ValueError(f"out must have shape ({self.size},)")
        np.add.at(out, self.indices, scale * self.values)
        return out

    @property
    def density(self) -> float:
        return self.indices.size / max(1, self.size)


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


def weighted_sparse_mean(
    updates: Sequence[SparseUpdate], sample_counts: Sequence[int]
) -> np.ndarray:
    """Streaming sample-weighted mean of sparse flat updates.

    Folds each update's support into one exact compensated accumulator —
    O(vector size) resident memory regardless of how many updates stream
    through, and bitwise identical to densifying every update and running
    :func:`~repro.fl.aggregation.fedavg` over the dense vectors (the
    aggregation module's exactness guarantee: adding explicit zeros cannot
    change an exact sum).
    """
    from .aggregation import CompensatedAccumulator

    if not updates:
        raise ValueError("no sparse updates to aggregate")
    if len(updates) != len(sample_counts):
        raise ValueError("updates and sample counts must align")
    if any(count <= 0 for count in sample_counts):
        raise ValueError("total sample count must be positive")
    size = int(updates[0].size)
    accumulator = CompensatedAccumulator(size)
    total = 0
    for update, count in zip(updates, sample_counts):
        if int(update.size) != size:
            raise ValueError("sparse updates disagree on vector size")
        accumulator.add_at(update.indices, float(count) * update.values)
        total += int(count)
    return accumulator.value() / float(total)
