"""Protection-policy planner.

Turns the paper's evaluation takeaways into an operational API: given the
attacks a deployment worries about, the model, and the device's secure
memory budget, recommend a policy.

Encoded knowledge (all from §8):

* **DRIA** is defeated by shielding the first convolutional layers —
  "to mitigate DRIA, one should focus on securing the first layers of the
  convolutional part".
* **MIA** is blunted by shielding the dense tail — "securing layers of the
  dense part usually found at the end of a model remains more efficient".
* **DRIA + MIA** together need a *non-successive* set (head conv + dense
  tail), which is exactly what static GradSec adds over DarkneTZ.
* **DPIA** needs *dynamic* protection — a moving window (MW=2 by default)
  with a tuned ``V_MW``; no static set is effective.

The planner also verifies the recommendation fits the secure-memory budget
and reports its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..nn.layers import Conv2D, Dense
from ..nn.model import Sequential
from ..tee.costmodel import CostModel, CycleCost
from ..tee.world import SecureMemoryExhausted
from .policy import DynamicPolicy, ProtectionPolicy, StaticPolicy

__all__ = ["PolicyRecommendation", "PolicyPlanner", "KNOWN_ATTACKS"]

KNOWN_ATTACKS = ("dria", "mia", "dpia")

# The paper's tuned MW=2 distribution for a 5-layer model; for other depths
# the planner falls back to uniform (and recommends running the search).
_PAPER_V_MW2_5LAYERS = (0.2, 0.1, 0.6, 0.1)


@dataclass(frozen=True)
class PolicyRecommendation:
    """A recommended policy plus its predicted cost."""

    policy: ProtectionPolicy
    cost: CycleCost
    rationale: str
    search_recommended: bool = False

    def format(self) -> str:
        note = " (run v_mw_search to tune the window distribution)" if self.search_recommended else ""
        return (
            f"{self.policy.describe()}: {self.rationale}{note}\n"
            f"  predicted cost: {self.cost.total_seconds:.3f}s/cycle, "
            f"{self.cost.tee_memory_mib:.3f} MiB TEE"
        )


class PolicyPlanner:
    """Recommends a protection policy for a model and threat set.

    Parameters
    ----------
    model:
        The network to protect.
    cost_model:
        Device cost model (fixes the secure-memory budget and batch size).
    """

    def __init__(self, model: Sequential, cost_model: Optional[CostModel] = None) -> None:
        self.model = model
        self.cost_model = cost_model or CostModel()

    # -- structural analysis ----------------------------------------------
    def conv_head_layers(self, count: int = 2) -> List[int]:
        """Indices of the first ``count`` convolutional layers."""
        out = [
            index
            for index, layer in enumerate(self.model.layers, start=1)
            if isinstance(layer, Conv2D)
        ]
        if not out:
            raise ValueError("model has no convolutional layers")
        return out[:count]

    def dense_tail_layers(self, count: int = 1) -> List[int]:
        """Indices of the last ``count`` dense layers."""
        out = [
            index
            for index, layer in enumerate(self.model.layers, start=1)
            if isinstance(layer, Dense)
        ]
        if not out:
            raise ValueError("model has no dense layers")
        return out[-count:]

    # -- planning ------------------------------------------------------------
    def _static(self, layers: Sequence[int], rationale: str) -> PolicyRecommendation:
        layout = self.model.layout()
        policy = StaticPolicy(layout, [layout.ref(i) for i in layers], max_slices=None)
        protected = tuple(sorted(policy.layers_for_cycle(0)))
        self.cost_model.check_fits(self.model, protected)
        cost = self.cost_model.cycle_cost(self.model, protected)
        return PolicyRecommendation(policy, cost, rationale)

    def _dynamic(self, size_mw: int, rationale: str) -> PolicyRecommendation:
        positions = self.model.num_layers - size_mw + 1
        if positions < 1:
            raise ValueError("window larger than the model")
        if size_mw == 2 and positions == len(_PAPER_V_MW2_5LAYERS):
            v_mw: Tuple[float, ...] = _PAPER_V_MW2_5LAYERS
            search = False
        else:
            v_mw = tuple(1.0 / positions for _ in range(positions))
            search = True
        policy = DynamicPolicy(self.model, size_mw, v_mw)
        for window in policy.windows:
            self.cost_model.check_fits(self.model, window)
        cost, _ = self.cost_model.dynamic_cost(self.model, policy.windows, policy.v_mw)
        return PolicyRecommendation(policy, cost, rationale, search_recommended=search)

    def recommend(self, attacks: Sequence[str]) -> PolicyRecommendation:
        """Recommend a policy covering every attack in ``attacks``.

        Raises
        ------
        ValueError
            For unknown attack names.
        SecureMemoryExhausted
            If no covered recommendation fits the device budget.
        """
        normalised = {a.lower() for a in attacks}
        unknown = normalised - set(KNOWN_ATTACKS)
        if unknown:
            raise ValueError(
                f"unknown attacks {sorted(unknown)}; known: {KNOWN_ATTACKS}"
            )
        if not normalised:
            raise ValueError("no attacks given")

        if "dpia" in normalised:
            # Dynamic protection covers DPIA and, by sweeping every layer
            # over time, also degrades the single-shot attacks.
            return self._dynamic(
                2,
                "DPIA needs cycle-varying protection (§8.2: no static set works)",
            )
        if "dria" in normalised and "mia" in normalised:
            layers = self.conv_head_layers(1) + self.dense_tail_layers(1)
            return self._static(
                layers,
                "DRIA wants the conv head, MIA the dense tail — the "
                "non-successive set DarkneTZ cannot express (Table 1)",
            )
        if "dria" in normalised:
            return self._static(
                self.conv_head_layers(2),
                "early conv layers carry the visual features DRIA needs (Fig. 5)",
            )
        # MIA only.
        return self._static(
            self.dense_tail_layers(1),
            "the dense tail carries the most membership signal (Fig. 6)",
        )
