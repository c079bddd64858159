"""Data-Reconstruction Inference Attack (DRIA) — Zhu et al.'s Deep Leakage
from Gradients [59], adapted to the client-side threat model.

The attacker observed the gradients a victim produced on a private batch
(those of *unprotected* layers only) and searches for an input that yields
matching gradients:

    minimise_x  sum_l || dW_l(x, y) - dW_l^observed ||^2   over visible l

The inner gradients are differentiable thanks to the autodiff engine's
double-backward support, so the outer optimisation runs with L-BFGS (the
paper's §8.1 choice, via scipy) or Adam.  Labels are assumed known (the
iDLG refinement); the paper's success metric is the Euclidean *ImageLoss*
between the reconstruction and the true input — below 1 counts as a
successful attack (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor, functional as F, grad
from ..data.transforms import image_loss
from ..nn.model import Sequential
from ..nn.optim import Adam
from .base import AttackResult, protected_to_frozenset

__all__ = ["DataReconstructionAttack", "DRIAReport"]


@dataclass
class DRIAReport:
    """Detailed DRIA outcome."""

    reconstruction: np.ndarray
    image_loss: float
    matching_losses: List[float]
    iterations: int


class DataReconstructionAttack:
    """Gradient-matching reconstruction attack.

    Parameters
    ----------
    model:
        The victim model (the attacker knows the unprotected weights; the
        evaluation, like the paper's, runs the attack against the full
        model but only matches *visible* gradients).
    iterations:
        Optimisation budget.
    optimizer:
        "lbfgs" (scipy L-BFGS-B, the paper's default) or "adam".
    lr:
        Adam learning rate (ignored for L-BFGS).
    seed:
        Dummy-input initialisation seed.
    """

    def __init__(
        self,
        model: Sequential,
        iterations: int = 120,
        optimizer: str = "lbfgs",
        lr: float = 0.1,
        seed: int = 0,
    ) -> None:
        if optimizer not in ("lbfgs", "adam"):
            raise ValueError(f"unknown optimizer {optimizer!r}")
        self.model = model
        self.iterations = int(iterations)
        self.optimizer = optimizer
        self.lr = float(lr)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def observed_gradients(
        self, x: np.ndarray, y_onehot: np.ndarray, protected: Iterable[int] = ()
    ) -> List[Optional[Dict[str, np.ndarray]]]:
        """What the attacker captured: gradients of unprotected layers."""
        protected_set = protected_to_frozenset(protected)
        grads = self.model.gradients_array(np.asarray(x), np.asarray(y_onehot))
        return [
            None if (i in protected_set) else g
            for i, g in enumerate(grads, start=1)
        ]

    def _matching_loss_and_grad(
        self,
        dummy: np.ndarray,
        y_onehot: np.ndarray,
        observed: List[Optional[Dict[str, np.ndarray]]],
    ) -> Tuple[float, np.ndarray]:
        """Gradient-matching loss and its gradient w.r.t. the dummy input."""
        x = Tensor(dummy, requires_grad=True)
        loss, grads = self.model.loss_and_gradients(x, y_onehot, create_graph=True)
        total: Optional[Tensor] = None
        for layer_obs, layer_grads in zip(observed, grads):
            if layer_obs is None:
                continue
            for name, target in layer_obs.items():
                diff = grads_diff = layer_grads[name] - Tensor(target)
                term = (diff * diff).sum()
                total = term if total is None else total + term
        if total is None:
            raise ValueError(
                "no visible gradients to match (every layer is protected)"
            )
        (gx,) = grad(total, [x])
        return float(total.item()), gx.data.copy()

    # ------------------------------------------------------------------
    def run(
        self,
        x_true: np.ndarray,
        y_onehot: np.ndarray,
        protected: Iterable[int] = (),
    ) -> AttackResult:
        """Reconstruct ``x_true`` from its (partially hidden) gradients."""
        x_true = np.asarray(x_true, dtype=np.float64)
        y_onehot = np.asarray(y_onehot, dtype=np.float64)
        protected_set = protected_to_frozenset(protected)
        observed = self.observed_gradients(x_true, y_onehot, protected_set)

        rng = np.random.default_rng(self.seed)
        dummy = rng.normal(0.5, 0.3, size=x_true.shape)
        losses: List[float] = []

        if self.optimizer == "lbfgs":
            # The one scipy call in the package: imported here so only a run
            # that asks for L-BFGS loads scipy.optimize (DESIGN.md § Import cones).
            from scipy import optimize

            shape = x_true.shape
            # Gradient-matching losses are numerically tiny (the inner
            # gradients are O(1e-2)); normalise so L-BFGS-B's default
            # tolerances do not declare convergence at the first iterate.
            initial, _ = self._matching_loss_and_grad(dummy, y_onehot, observed)
            scale = 1.0 / max(initial, 1e-30)

            def objective(flat: np.ndarray):
                value, gx = self._matching_loss_and_grad(
                    flat.reshape(shape), y_onehot, observed
                )
                losses.append(value)
                return scale * value, scale * gx.ravel()

            solution = optimize.minimize(
                objective,
                dummy.ravel(),
                jac=True,
                method="L-BFGS-B",
                options={
                    "maxiter": self.iterations,
                    "maxfun": 4 * self.iterations,
                    "ftol": 1e-14,
                    "gtol": 1e-12,
                },
            )
            reconstruction = solution.x.reshape(shape)
            iterations = int(solution.nit)
        else:
            x_var = Tensor(dummy, requires_grad=True)
            opt = Adam([x_var], lr=self.lr)
            for _ in range(self.iterations):
                value, gx = self._matching_loss_and_grad(
                    x_var.data, y_onehot, observed
                )
                losses.append(value)
                opt.step([gx])
            reconstruction = x_var.data
            iterations = self.iterations

        score = image_loss(reconstruction, x_true)
        report = DRIAReport(
            reconstruction=reconstruction,
            image_loss=score,
            matching_losses=losses,
            iterations=iterations,
        )
        return AttackResult(
            attack="DRIA",
            protected=protected_set,
            score=score,
            metric="ImageLoss",
            detail={"report": report},
        )
