"""TEE-aware memory planning as a compile-time artifact.

The paper's binding constraint is peak secure-world memory: a protected
set only trains if ``W + dW + A_{l-1} + Z_l + delta_l`` for every shielded
layer fits the enclave pool at once.  At runtime the repo measures this via
the ``tee.pool.peak_bytes`` gauge; this module computes the same number
*statically*, per layer, from shapes alone — before any enclave is
provisioned — and cross-checks it against :meth:`CostModel.tee_memory_bytes`
so the two accountings can never drift apart.

:func:`plan_protection` evaluates one protected set; a dynamic policy is
planned one cycle's set at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..nn.model import Sequential
from ..tee.costmodel import CostModel

__all__ = ["LayerMemory", "MemoryPlan", "plan_protection"]

_FLOAT_BYTES = 4


@dataclass(frozen=True)
class LayerMemory:
    """Static secure-memory breakdown for one shielded layer (1-based index).

    ``params_bytes`` covers W + dW; ``activation_bytes`` covers the batch
    activations the enclave holds (A_{l-1} + Z_l + delta_l).  Their sum is
    exactly :meth:`repro.nn.layers.Layer.tee_memory_bytes`.
    """

    index: int
    name: str
    params_bytes: int
    activation_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.params_bytes + self.activation_bytes


@dataclass(frozen=True)
class MemoryPlan:
    """Compile-time secure-pool budget for one protected set."""

    protected: Tuple[int, ...]
    batch_size: int
    layers: Tuple[LayerMemory, ...]

    @property
    def peak_bytes(self) -> int:
        """Planned secure-pool peak: all shielded buffers are provisioned at
        cycle start and live through the cycle, so the peak is the sum."""
        return sum(entry.total_bytes for entry in self.layers)


def plan_protection(
    model: Sequential,
    protected: Iterable[int],
    batch_size: int = 32,
    cost_model: Optional[CostModel] = None,
) -> MemoryPlan:
    """Plan secure-pool usage for shielding ``protected`` layers (1-based).

    The plan's ``peak_bytes`` is asserted equal to
    :meth:`CostModel.tee_memory_bytes` for the same set — a drift between
    the per-layer breakdown here and the cost model's aggregate would mean
    the compile-time budget no longer predicts the runtime gauge.
    """
    indices = tuple(sorted(set(int(i) for i in protected)))
    entries: List[LayerMemory] = []
    for index in indices:
        layer = model.layer(index)
        total = layer.tee_memory_bytes(batch_size)
        params_bytes = 2 * _FLOAT_BYTES * layer.param_count
        entries.append(
            LayerMemory(
                index=index,
                name=layer.name,
                params_bytes=params_bytes,
                activation_bytes=total - params_bytes,
            )
        )
    plan = MemoryPlan(
        protected=indices,
        batch_size=int(batch_size),
        layers=tuple(entries),
    )
    cm = cost_model or CostModel(batch_size=batch_size)
    expected = cm.tee_memory_bytes(model, indices)
    if plan.peak_bytes != expected:
        raise AssertionError(
            f"planned secure-pool peak {plan.peak_bytes} B disagrees with "
            f"CostModel.tee_memory_bytes {expected} B for set {indices}"
        )
    return plan
