"""Overhead accounting for protection configurations (Table 6 rows).

Thin composition layer over :class:`repro.tee.CostModel` that understands
policies, so the benchmark harness can ask "what does this policy cost?"
and get back rows shaped like the paper's Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..nn.model import Sequential
from ..tee.costmodel import CostModel, CycleCost
from .policy import DynamicPolicy, PeltaPolicy, ProtectionPolicy

__all__ = ["OverheadRow", "policy_overhead", "static_overhead", "dynamic_overhead"]


@dataclass(frozen=True)
class OverheadRow:
    """One Table 6 row: a configuration and its cost."""

    label: str
    cost: CycleCost
    overhead_percent: float
    average: bool = False


def static_overhead(
    model: Sequential,
    protected: Tuple[int, ...],
    cost_model: Optional[CostModel] = None,
    label: Optional[str] = None,
) -> OverheadRow:
    """Cost of one cycle with a fixed protected set."""
    cm = cost_model or CostModel()
    baseline = cm.cycle_cost(model, ())
    cost = cm.cycle_cost(model, protected)
    name = label or ("+".join(f"L{i}" for i in sorted(protected)) or "baseline")
    return OverheadRow(name, cost, cost.overhead_percent(baseline))


def dynamic_overhead(
    model: Sequential,
    policy: DynamicPolicy | PeltaPolicy,
    cost_model: Optional[CostModel] = None,
    label: Optional[str] = None,
) -> Tuple[OverheadRow, List[OverheadRow]]:
    """Weighted-average cost of a moving-window policy plus per-window rows.

    Matches the paper's §8.3 accounting: time is the ``V_MW``-weighted
    average, memory is the worst window's footprint.
    """
    cm = cost_model or CostModel()
    baseline = cm.cycle_cost(model, ())
    avg, per_window = cm.dynamic_cost(model, policy.windows, policy.v_mw)
    rows = [
        OverheadRow(
            "+".join(f"L{i}" for i in window),
            cost,
            cost.overhead_percent(baseline),
        )
        for window, cost in per_window.items()
    ]
    name = label or f"MW={policy.size_mw} avg"
    avg_row = OverheadRow(name, avg, avg.overhead_percent(baseline), average=True)
    return avg_row, rows


def policy_overhead(
    model: Sequential,
    policy: ProtectionPolicy,
    cost_model: Optional[CostModel] = None,
) -> OverheadRow:
    """Cost of an arbitrary policy (moving windows are averaged)."""
    if hasattr(policy, "windows"):
        avg_row, _ = dynamic_overhead(model, policy, cost_model, label=policy.describe())
        return avg_row
    protected = tuple(sorted(policy.layers_for_cycle(0)))
    return static_overhead(model, protected, cost_model, label=policy.describe())
