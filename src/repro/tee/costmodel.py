"""Analytical cost model for shielded training (Table 6 / Figures 7–8).

Wall-clock time on the paper's Raspberry Pi cannot be measured here, so this
model computes, from layer shapes and a :class:`DeviceProfile`, the three
components the paper reports per FL cycle:

* **user time** — computation of unprotected layers in the normal world;
* **kernel time** — computation of protected layers inside the enclave
  (slower per FLOP) plus the world-switch cost of crossing the boundary;
* **allocation time** — enclave ``malloc`` for protected weights, a
  superlinear function of the parameter count (this is the term that makes
  protecting LeNet-5's dense L5 cost 4.7 s per cycle).

It also computes the secure-memory footprint of a protected set, which the
paper measures by instrumenting DarkneTZ's mallocs and which here follows
from shapes (``W + dW + A_{l-1} + Z_l + delta_l`` per protected layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

from ..obs import get_registry
from ..nn.model import Sequential
from .profiles import RASPBERRY_PI_3B, DeviceProfile
from .world import SecureMemoryExhausted

__all__ = ["CycleCost", "CostModel"]


@dataclass(frozen=True)
class CycleCost:
    """Cost of one FL training cycle, matching Table 6's columns."""

    user_seconds: float
    kernel_seconds: float
    alloc_seconds: float
    tee_memory_bytes: int

    @property
    def total_seconds(self) -> float:
        return self.user_seconds + self.kernel_seconds + self.alloc_seconds

    @property
    def tee_memory_mib(self) -> float:
        return self.tee_memory_bytes / (1024.0 * 1024.0)

    def overhead_percent(self, baseline: "CycleCost") -> float:
        """Training-time overhead relative to an unprotected baseline."""
        return 100.0 * (self.total_seconds - baseline.total_seconds) / baseline.total_seconds

    def scaled(self, weight: float) -> "CycleCost":
        return CycleCost(
            self.user_seconds * weight,
            self.kernel_seconds * weight,
            self.alloc_seconds * weight,
            int(self.tee_memory_bytes * weight),
        )

    def plus(self, other: "CycleCost") -> "CycleCost":
        return CycleCost(
            self.user_seconds + other.user_seconds,
            self.kernel_seconds + other.kernel_seconds,
            self.alloc_seconds + other.alloc_seconds,
            self.tee_memory_bytes + other.tee_memory_bytes,
        )


class CostModel:
    """Computes per-cycle training cost for a model under a protection set.

    Parameters
    ----------
    profile:
        Device calibration constants (default: the paper's Raspberry Pi).
    batch_size:
        Training batch size (the paper's Table 6 uses 32).
    batches_per_cycle:
        Local batches per FL cycle (1 reproduces Table 6's scale).
    """

    def __init__(
        self,
        profile: DeviceProfile = RASPBERRY_PI_3B,
        batch_size: int = 32,
        batches_per_cycle: int = 1,
    ) -> None:
        for name, value in (("batch_size", batch_size), ("batches_per_cycle", batches_per_cycle)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        self.profile = profile
        self.batch_size = int(batch_size)
        self.batches_per_cycle = int(batches_per_cycle)

    # ------------------------------------------------------------------
    def _layer_flops(self, model: Sequential) -> List[float]:
        factor = self.profile.training_flops_factor()
        return [
            layer.flops_per_sample() * factor * self.batch_size * self.batches_per_cycle
            for layer in model.layers
        ]

    def tee_memory_bytes(self, model: Sequential, protected: Iterable[int]) -> int:
        """Secure memory needed to shield layers ``protected`` (1-based)."""
        return sum(
            model.layer(i).tee_memory_bytes(self.batch_size) for i in set(protected)
        )

    def check_fits(self, model: Sequential, protected: Iterable[int]) -> None:
        """Raise :class:`SecureMemoryExhausted` if the set exceeds the pool."""
        needed = self.tee_memory_bytes(model, protected)
        if needed > self.profile.secure_memory_bytes:
            get_registry().counter(
                "tee.costmodel.rejected_sets",
                "protected sets refused for exceeding device secure memory",
            ).inc(profile=self.profile.name)
            raise SecureMemoryExhausted(
                f"protected set needs {needed} B but device "
                f"{self.profile.name!r} has {self.profile.secure_memory_bytes} B"
            )

    def cycle_cost(self, model: Sequential, protected: Iterable[int] = ()) -> CycleCost:
        """Cost of one FL cycle with ``protected`` layer indices (1-based)."""
        protected_set = set(protected)
        for index in protected_set:
            model.layer(index)  # validates the index range
        flops = self._layer_flops(model)
        profile = self.profile

        user = sum(
            f for i, f in enumerate(flops, start=1) if i not in protected_set
        ) * profile.ree_seconds_per_flop
        kernel = profile.kernel_base_seconds
        kernel += sum(
            f for i, f in enumerate(flops, start=1) if i in protected_set
        ) * profile.tee_seconds_per_flop
        kernel += len(protected_set) * profile.world_switch_seconds
        alloc = sum(
            profile.alloc_seconds(model.layer(i).weight_param_count)
            for i in protected_set
        )
        memory = self.tee_memory_bytes(model, protected_set)
        cost = CycleCost(user, kernel, alloc, memory)
        registry = get_registry()
        registry.counter(
            "tee.costmodel.evaluations", "analytical cycle-cost evaluations"
        ).inc(profile=profile.name)
        registry.histogram(
            "tee.costmodel.cycle_seconds", "modelled per-cycle device time"
        ).observe(cost.total_seconds, profile=profile.name)
        return cost

    def step_cost(
        self, model: Sequential, protected: Collection[int], batch: int
    ) -> CycleCost:
        """User/kernel time a shielded trainer accrues per step of ``batch``."""
        factor = self.profile.training_flops_factor()
        user = kernel = 0.0
        for i in range(1, model.num_layers + 1):
            flops = model.layer(i).flops_per_sample() * factor * batch
            if i in protected:
                kernel += flops * self.profile.tee_seconds_per_flop
            else:
                user += flops * self.profile.ree_seconds_per_flop
        kernel += len(protected) * self.profile.world_switch_seconds
        return CycleCost(user, kernel, 0.0, 0)

    def alloc_cost(self, model: Sequential, protected: Iterable[int]) -> CycleCost:
        """Enclave allocation time for protected weights, once per cycle."""
        alloc = sum(
            self.profile.alloc_seconds(model.layer(i).weight_param_count)
            for i in protected
        )
        return CycleCost(0.0, 0.0, alloc, 0)

    # ------------------------------------------------------------------
    def dynamic_cost(
        self,
        model: Sequential,
        windows: Sequence[Tuple[int, ...]],
        probabilities: Sequence[float],
    ) -> Tuple[CycleCost, Dict[Tuple[int, ...], CycleCost]]:
        """Average cost of dynamic GradSec over a moving-window schedule.

        Mirrors the paper's §8.3 accounting: training time is the
        probability-weighted average over window positions, while the
        reported TEE memory is the *most expensive* position (worst case).

        Returns the averaged cost and the per-window breakdown.
        """
        if len(windows) != len(probabilities):
            raise ValueError("windows and probabilities must align")
        total_p = float(sum(probabilities))
        if abs(total_p - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1 (got {total_p})")
        per_window: Dict[Tuple[int, ...], CycleCost] = {}
        avg = CycleCost(0.0, 0.0, 0.0, 0)
        worst_memory = 0
        for window, p in zip(windows, probabilities):
            cost = self.cycle_cost(model, window)
            per_window[tuple(window)] = cost
            avg = avg.plus(cost.scaled(p))
            worst_memory = max(worst_memory, cost.tee_memory_bytes)
        avg = CycleCost(
            avg.user_seconds, avg.kernel_seconds, avg.alloc_seconds, worst_memory
        )
        return avg, per_window
