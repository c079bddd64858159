"""PPFL [36] — privacy-preserving FL via layer-wise training in the TEE.

The paper's closest TEE-based related work. PPFL keeps *every* layer's
training inside the enclave by training the model greedily, one layer at a
time: layer k is trained (with all earlier layers frozen) until it
converges, then frozen, and the next layer starts. Only the layer under
training needs enclave memory, so PPFL always fits — at the cost of a
sequential, multi-pass training schedule (the overhead the paper's §9
critique points at).

This module implements greedy layer-wise training on top of the shielded
trainer, plus the cost accounting that the baseline-comparison benchmark
uses to contrast PPFL's always-in-TEE sequential schedule with GradSec's
selective protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.policy import StaticPolicy
from ..core.shielded import ShieldedModel
from ..data.datasets import ArrayDataset
from ..nn.model import Sequential
from ..tee.costmodel import CostModel, CycleCost

__all__ = ["PPFLTrainer", "PPFLReport"]


@dataclass
class PPFLReport:
    """Outcome of a PPFL layer-wise training pass."""

    losses_per_layer: List[List[float]]
    simulated_cost: CycleCost
    cycles_used: int


class PPFLTrainer:
    """Greedy layer-wise trainer with every active layer inside the TEE.

    Parameters
    ----------
    model:
        The network to train (trained in place).
    epochs_per_layer:
        Local passes over the data while each layer is the active one.
    cost_model:
        Device cost model for simulated-time accounting.
    """

    def __init__(
        self,
        model: Sequential,
        epochs_per_layer: int = 1,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.model = model
        self.epochs_per_layer = int(epochs_per_layer)
        self.cost_model = cost_model

    def train(
        self,
        dataset: ArrayDataset,
        lr: float = 0.1,
        batch_size: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> PPFLReport:
        """Run the full layer-wise schedule over ``dataset``.

        Every cycle protects exactly the layer currently being trained
        (PPFL's always-in-TEE property with a single-layer footprint);
        earlier layers stay frozen by masking their updates.
        """
        rng = rng or np.random.default_rng(0)
        losses_per_layer: List[List[float]] = []
        total_cost = CycleCost(0.0, 0.0, 0.0, 0)
        cycles = 0
        layout = self.model.layout()
        for active in range(1, self.model.num_layers + 1):
            if not self.model.layer(active).params:
                losses_per_layer.append([])
                continue
            shielded = ShieldedModel(
                self.model,
                StaticPolicy(layout, [layout.ref(active)]),
                batch_size=batch_size,
                cost_model=self.cost_model,
            )
            frozen = {
                index: self.model.layer(index).get_weights()
                for index in range(1, self.model.num_layers + 1)
                if index != active and self.model.layer(index).params
            }
            layer_losses: List[float] = []
            for _ in range(self.epochs_per_layer):
                shielded.begin_cycle()
                for batch in dataset.batches(batch_size, rng=rng, drop_last=True):
                    layer_losses.append(shielded.train_step(batch.x, batch.y, lr=lr))
                shielded.end_cycle()
                cycles += 1
                # PPFL freezes every layer but the active one; undo the
                # SGD updates the generic trainer applied to the others.
                for index, weights in frozen.items():
                    self.model.layer(index).set_weights(weights)
            losses_per_layer.append(layer_losses)
            total_cost = total_cost.plus(shielded.simulated_cost)
        return PPFLReport(losses_per_layer, total_cost, cycles)
