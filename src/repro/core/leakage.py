"""Leakage views: what a normal-world attacker observes.

The attacks are evaluated against these views, mirroring the paper's
methodology (§8.1): gradients of protected layers are simply *absent* from
the attacker's dataset, because they only ever existed in the enclave.

A :class:`CycleLeakage` captures one FL cycle on one client:

* per-step gradients of every **unprotected** layer (flaw 2 — observing the
  back-propagation flow);
* weight snapshots of unprotected layers before/after local training, from
  which an attacker can recover average gradients by differencing
  (flaw 1 — ``dW = (W_t - W_{t+1}) / lambda``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..nn.model import Sequential

__all__ = ["CycleLeakage"]


@dataclass
class CycleLeakage:
    """Normal-world-observable record of one training cycle."""

    cycle: int
    protected: FrozenSet[int]
    num_layers: int
    gradients: List[Dict[str, List[np.ndarray]]] = field(default_factory=list)
    weights_before: List[Optional[Dict[str, np.ndarray]]] = field(default_factory=list)
    weights_after: List[Optional[Dict[str, np.ndarray]]] = field(default_factory=list)
    peak_tee_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.gradients:
            self.gradients = [dict() for _ in range(self.num_layers)]

    # -- recording (called by the shielded trainer) ----------------------
    def record_gradient(self, layer_index: int, name: str, value: np.ndarray) -> None:
        if layer_index in self.protected:
            raise AssertionError(
                f"attempted to record a gradient for protected layer L{layer_index}"
            )
        self.gradients[layer_index - 1].setdefault(name, []).append(value.copy())

    def _snapshot(self, model: Sequential) -> List[Optional[Dict[str, np.ndarray]]]:
        out: List[Optional[Dict[str, np.ndarray]]] = []
        for i in range(1, self.num_layers + 1):
            if i in self.protected:
                out.append(None)
            else:
                out.append(model.layer(i).get_weights())
        return out

    def record_weights_before(self, model: Sequential, protected: FrozenSet[int]) -> None:
        self.weights_before = self._snapshot(model)

    def record_weights_after(self, model: Sequential, protected: FrozenSet[int]) -> None:
        self.weights_after = self._snapshot(model)

    # -- attacker-facing accessors ---------------------------------------
    def mean_gradients(self) -> List[Optional[Dict[str, np.ndarray]]]:
        """Average observed gradient per unprotected layer, None if protected."""
        out: List[Optional[Dict[str, np.ndarray]]] = []
        for i in range(1, self.num_layers + 1):
            if i in self.protected:
                out.append(None)
                continue
            per_layer = self.gradients[i - 1]
            out.append(
                {name: np.mean(values, axis=0) for name, values in per_layer.items()}
            )
        return out

    def weight_diff_gradients(self, lr: float) -> List[Optional[Dict[str, np.ndarray]]]:
        """Flaw-1 reconstruction: ``dW = (W_before - W_after) / lr``.

        Returns summed-over-steps gradients for unprotected layers, ``None``
        for protected ones (their updates happened inside the enclave).
        """
        if lr <= 0:
            raise ValueError("lr must be positive")
        out: List[Optional[Dict[str, np.ndarray]]] = []
        for before, after in zip(self.weights_before, self.weights_after):
            if before is None or after is None:
                out.append(None)
                continue
            out.append(
                {
                    name: (before[name] - after[name]) / lr
                    for name in before
                }
            )
        return out

    def feature_vector(self, include_bias: bool = False) -> np.ndarray:
        """Flat attack-feature vector over *visible* mean gradients only."""
        parts: List[np.ndarray] = []
        for mean in self.mean_gradients():
            if mean is None:
                continue
            for name in sorted(mean):
                if not include_bias and name == "bias":
                    continue
                parts.append(mean[name].ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)
