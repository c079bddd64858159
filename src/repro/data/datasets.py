"""Dataset containers and batching.

The paper trains on CIFAR-100 and LFW.  Neither is available offline, so the
generators in :mod:`repro.data.synthetic` produce structured stand-ins; this
module provides the dataset container and the batching/sharding machinery
that the FL clients and the attacks share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ..nn.losses import one_hot

__all__ = ["ArrayDataset", "Batch"]


@dataclass
class Batch:
    """A training batch: inputs, one-hot labels and (optionally) properties."""

    x: np.ndarray
    y: np.ndarray
    properties: Optional[np.ndarray] = None


@dataclass
class ArrayDataset:
    """In-memory dataset of images (or feature vectors) with integer labels.

    Parameters
    ----------
    x:
        Samples; first axis is the sample axis.  float32 samples are kept
        as float32, anything else is stored as float64.
    y:
        Integer class labels, shape ``(N,)``.
    num_classes:
        Total number of classes (fixes the one-hot width).
    properties:
        Optional binary per-sample property labels (the DPIA target),
        shape ``(N,)``.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    properties: Optional[np.ndarray] = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        x = np.asarray(self.x)
        # A float32 shard (a device's, see repro.fl.client) stays float32.
        self.x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )
        if self.properties is not None:
            self.properties = np.asarray(self.properties, dtype=np.int64)
            if self.properties.shape[0] != self.y.shape[0]:
                raise ValueError("properties length must match labels")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def one_hot_labels(self) -> np.ndarray:
        return one_hot(self.y, self.num_classes)

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "ArrayDataset":
        """Dataset restricted to ``indices`` (copies)."""
        indices = np.asarray(indices)
        return ArrayDataset(
            self.x[indices].copy(),
            self.y[indices].copy(),
            self.num_classes,
            None if self.properties is None else self.properties[indices].copy(),
            name=name or self.name,
        )

    def shard(self, num_shards: int) -> list:
        """Deterministic round-robin sharding (one shard per FL client)."""
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        return [
            self.subset(np.arange(i, len(self), num_shards), name=f"{self.name}#{i}")
            for i in range(num_shards)
        ]

    def batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> Iterator[Batch]:
        """Iterate over mini-batches of one-hot-labelled samples."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(len(self))
        if shuffle:
            rng = rng or np.random.default_rng(0)
            order = rng.permutation(order)
        labels = self.one_hot_labels()
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            if drop_last and idx.shape[0] < batch_size:
                return
            props = None if self.properties is None else self.properties[idx]
            yield Batch(self.x[idx], labels[idx], props)
