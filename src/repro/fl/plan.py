"""Training plans.

The FL server ships a plan alongside the model (§5 step 2): the local
hyper-parameters plus the protection parameters.  The protection half is
the :class:`~repro.core.policy.ProtectionPolicy` object itself —
``FLServer`` and ``FLClient`` take it beside the plan, and the static set
or the moving window's ``V_MW`` live on it — so this dataclass carries the
hyper-parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrainingPlan"]


@dataclass(frozen=True)
class TrainingPlan:
    """Local hyper-parameters for one FL deployment.

    Attributes
    ----------
    lr:
        Local SGD learning rate (the paper's lambda).
    batch_size:
        Local mini-batch size (Table 6 uses 32).
    local_steps:
        SGD steps per FL cycle on each client.
    """

    lr: float = 0.1
    batch_size: int = 32
    local_steps: int = 1

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
