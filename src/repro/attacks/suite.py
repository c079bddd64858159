"""Security-audit suite: run every attack against one protection policy.

The paper evaluates each attack in its own setup; deployments want the
opposite view — *given my policy, what does every attack achieve?* The
suite runs DRIA, MIA and DPIA against a policy and produces a verdict per
attack, using each attack's paper-calibrated success criterion:

* DRIA succeeds if ImageLoss < threshold (paper: < 1; the default here is
  scaled to the synthetic data, see Table 1 reproduction notes);
* MIA / DPIA succeed if AUC exceeds 0.5 by a configurable margin.

The workloads the attacks run on are the paper experiments' own
(:mod:`repro.bench.experiments`), built once per suite and scored per
policy, so an audit row is the figure's row for that protected set at
the suite's budgets.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Optional

from ..core.policy import ProtectionPolicy
from ..nn.zoo import lenet5
from ..obs import get_clock, get_registry, get_tracer
from .base import AttackResult

__all__ = ["AttackVerdict", "SecurityReport", "AttackSuite"]


@dataclass(frozen=True)
class AttackVerdict:
    """One attack's outcome against the audited policy."""

    result: AttackResult
    succeeded: bool
    criterion: str


@dataclass
class SecurityReport:
    """Aggregate audit outcome."""

    policy_description: str
    verdicts: Dict[str, AttackVerdict] = field(default_factory=dict)

    @property
    def secure(self) -> bool:
        """True when no attack in the suite succeeded."""
        return not any(v.succeeded for v in self.verdicts.values())

    def format(self) -> str:
        lines = [f"security audit of {self.policy_description}"]
        for name, verdict in self.verdicts.items():
            status = "ATTACK SUCCEEDS" if verdict.succeeded else "defended"
            lines.append(
                f"  {name:<6} {verdict.result.metric}="
                f"{verdict.result.score:.3f}  ({verdict.criterion})  -> {status}"
            )
        lines.append(f"  overall: {'SECURE' if self.secure else 'NOT SECURE'}")
        return "\n".join(lines)


#: Each attack's victim when the suite is given no model factory: the
#: paper's LeNet-5, its MIA target with ReLU at half width.
_PAPER_VICTIMS = {
    "DRIA": lenet5,
    "MIA": partial(lenet5, activation="relu", scale=0.5),
    "DPIA": lenet5,
}


class AttackSuite:
    """Runs the single-cycle attacks (DRIA, MIA) against a policy.

    DPIA needs a multi-cycle FL run, so the suite exposes it separately via
    :meth:`audit_dpia` (see :func:`repro.bench.experiments.dpia_experiment`
    for the full pipeline); :meth:`audit` covers the single-shot attacks.
    The DRIA victim and probe, and the trained MIA target and its probe
    features, are built on first use and shared by every audit.

    Parameters
    ----------
    dria_threshold:
        ImageLoss below which reconstruction counts as successful. The
        paper uses < 1 on CIFAR-100; on the synthetic stand-in, unprotected
        reconstructions land around 3 and defeated ones above 10, so the
        default splits those regimes.
    mia_margin:
        MIA succeeds if AUC > 0.5 + margin.
    fast:
        Shrink every attack's budget (tests / CI).
    model_factory:
        ``None`` (default) audits the paper's LeNet-5 victims.  Otherwise
        a callable ``model_factory(num_classes=..., seed=...)`` building
        the victim architecture of every attack — e.g.
        :func:`repro.nn.vit_tiny` — so block policies for transformer
        models can be audited with the same suite.  Synthetic data shapes
        follow the model's ``input_shape``.
    """

    def __init__(
        self,
        dria_threshold: float = 8.0,
        mia_margin: float = 0.2,
        seed: int = 0,
        fast: bool = False,
        model_factory: Optional[Callable[..., "object"]] = None,
    ) -> None:
        self.dria_threshold = float(dria_threshold)
        self.mia_margin = float(mia_margin)
        self.seed = int(seed)
        self.fast = bool(fast)
        self._victims: Dict[str, Callable[..., "object"]] = {
            attack: model_factory or victim for attack, victim in _PAPER_VICTIMS.items()
        }

    @cached_property
    def _dria(self):
        from ..bench.experiments import dria_workload

        return dria_workload(
            self._victims["DRIA"],
            iterations=40 if self.fast else 150,
            num_classes=10,
            seed=self.seed,
        )

    @cached_property
    def _mia(self):
        from ..bench.experiments import mia_workload

        return mia_workload(
            self._victims["MIA"],
            num_classes=10 if self.fast else 20,
            samples_per_side=80 if self.fast else 160,
            epochs=10,  # enough memorisation for a clear unprotected signal
            probes_per_class=40 if self.fast else 80,
            attack_seeds=1,
            noise=0.5,
            seed=self.seed,
        )

    def _check_depth(self, policy: ProtectionPolicy) -> None:
        # Every attack's victim is the same architecture: check the DRIA one.
        model = self._dria.model
        if policy.num_layers != model.num_layers:
            raise ValueError(
                f"policy addresses {policy.num_layers} layers but the audited "
                f"model '{model.name}' is a {model.num_layers}-layer model"
            )

    @contextmanager
    def _observed(self, attack: str, policy: ProtectionPolicy):
        """Span + per-attack latency histogram around one attack run."""
        registry = get_registry()
        registry.counter("attacks.runs", "attack executions").inc(attack=attack)
        started = get_clock().now()
        try:
            with get_tracer().span(
                "attack.run", attack=attack, policy=policy.describe()
            ):
                yield
        finally:
            registry.histogram(
                "attacks.seconds", "wall time per attack run"
            ).observe(get_clock().now() - started, attack=attack)

    def audit(self, policy: ProtectionPolicy) -> SecurityReport:
        """Run DRIA and MIA against ``policy`` on the audited workloads."""
        self._check_depth(policy)
        protected = tuple(sorted(policy.layers_for_cycle(0)))
        report = SecurityReport(policy.describe())

        with self._observed("DRIA", policy):
            try:
                dria_result = self._dria.score(protected)
                dria_success = dria_result.score < self.dria_threshold
            except ValueError:  # everything protected: no gradients to match
                dria_result = AttackResult(
                    "DRIA", frozenset(protected), float("inf"), "ImageLoss"
                )
                dria_success = False
        report.verdicts["DRIA"] = AttackVerdict(
            dria_result,
            dria_success,
            f"ImageLoss < {self.dria_threshold}",
        )

        mia = self._mia  # trained outside the span on the first audit
        with self._observed("MIA", policy):
            mia_result = mia.score(protected)
        report.verdicts["MIA"] = AttackVerdict(
            mia_result,
            mia_result.score > 0.5 + self.mia_margin,
            f"AUC > {0.5 + self.mia_margin:.2f}",
        )
        return report

    def audit_dpia(
        self, policy: ProtectionPolicy, cycles: int = 24
    ) -> AttackVerdict:
        """Run the multi-cycle DPIA pipeline against ``policy``.

        Separate from :meth:`audit` because it simulates an FL run
        (seconds-to-minutes depending on ``cycles``); the victim is the
        audited architecture's binary classifier.
        """
        from ..bench.experiments import dpia_experiment

        self._check_depth(policy)
        with self._observed("DPIA", policy):
            row = dpia_experiment(
                [(policy.describe(), policy)],
                cycles=cycles,
                fast=self.fast,
                seed=self.seed,
                model_factory=self._victims["DPIA"],
            )[0]
        result = AttackResult("DPIA", frozenset(row.protected), row.score, "AUC")
        return AttackVerdict(
            result,
            row.score > 0.5 + self.mia_margin,
            f"AUC > {0.5 + self.mia_margin:.2f}",
        )
