"""High-level experiment drivers.

Each driver reproduces one of the paper's experimental pipelines end to end
(victim training, leakage collection, attack, metric) and returns plain
result rows.  The benchmark modules under ``benchmarks/`` and the examples
call these; tests exercise reduced configurations of the same code paths.

All drivers accept a ``fast`` flag that shrinks the workload (fewer cycles,
probes, iterations) without changing the pipeline shape — used by the test
suite and CI-speed benchmark runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.dpia import PropertyInferenceAttack
from ..attacks.dria import DataReconstructionAttack
from ..attacks.mia import MembershipInferenceAttack, train_target_model
from ..core.policy import (
    DynamicPolicy,
    NoProtection,
    ProtectionPolicy,
    StaticPolicy,
)
from ..core.search import SearchResult, candidate_distributions, search_v_mw
from ..core.shielded import ShieldedModel
from ..data.datasets import ArrayDataset
from ..data.synthetic import synthetic_cifar, synthetic_lfw
from ..nn.model import Sequential
from ..nn.zoo import alexnet, lenet5

__all__ = [
    "ExperimentRow",
    "dria_experiment",
    "mia_experiment",
    "simulate_fl_for_dpia",
    "dpia_experiment",
    "v_mw_search",
    "DPIA_BEST_V_MW",
]

# The paper's tuned distribution for MW=2 on LeNet-5 (§8.2 / Table 5).
DPIA_BEST_V_MW: Dict[int, Tuple[float, ...]] = {
    2: (0.2, 0.1, 0.6, 0.1),
    3: (0.1, 0.1, 0.8),
    4: (0.1, 0.9),
}


@dataclass
class ExperimentRow:
    """One (configuration, score) result row."""

    label: str
    protected: Tuple[int, ...]
    score: float
    metric: str
    extra: dict = field(default_factory=dict)

    def format(self) -> str:
        pretty = "+".join(f"L{i}" for i in self.protected) or "none"
        return f"{self.label:<28} [{pretty:<14}] {self.metric}={self.score:.3f}"


def _layers_label(protected: Sequence[int]) -> str:
    return "+".join(f"L{i}" for i in sorted(protected)) or "none"


# ----------------------------------------------------------------------
# DRIA (Figure 5)
# ----------------------------------------------------------------------

def dria_experiment(
    protected_sets: Sequence[Tuple[int, ...]],
    model_name: str = "lenet5",
    iterations: int = 150,
    num_classes: int = 10,
    model_scale: float = 1.0,
    seed: int = 0,
    fast: bool = False,
) -> List[ExperimentRow]:
    """ImageLoss of gradient-matching reconstruction per protected set."""
    if fast:
        iterations = min(iterations, 30)
        model_scale = min(model_scale, 0.5)
    factory = lenet5 if model_name == "lenet5" else alexnet
    model = factory(num_classes=num_classes, seed=seed + 1, scale=model_scale)
    data = synthetic_cifar(num_samples=4, num_classes=num_classes, seed=seed)
    x, y = data.x[:1], data.one_hot_labels()[:1]
    attack = DataReconstructionAttack(model, iterations=iterations, seed=seed)
    rows = []
    for protected in protected_sets:
        result = attack.run(x, y, protected=protected)
        rows.append(
            ExperimentRow(
                label=f"DRIA/{model_name}",
                protected=tuple(sorted(protected)),
                score=result.score,
                metric="ImageLoss",
                extra={"iterations": result.detail["report"].iterations},
            )
        )
    return rows


# ----------------------------------------------------------------------
# MIA (Figure 6)
# ----------------------------------------------------------------------

def mia_experiment(
    protected_sets: Sequence[Tuple[int, ...]],
    model_name: str = "lenet5",
    num_classes: int = 30,
    samples_per_side: int = 240,
    epochs: int = 12,
    probes_per_class: int = 120,
    attack_seeds: int = 3,
    model_scale: float = 1.0,
    noise: float = 0.45,
    seed: int = 0,
    fast: bool = False,
) -> List[ExperimentRow]:
    """Seed-averaged MIA AUC per protected set (target trained to overfit)."""
    if fast:
        samples_per_side = min(samples_per_side, 64)
        epochs = min(epochs, 3)
        probes_per_class = min(probes_per_class, 40)
        attack_seeds = 1
        model_scale = min(model_scale, 0.5)
        num_classes = min(num_classes, 10)
    factory = lenet5 if model_name == "lenet5" else alexnet
    model = factory(
        num_classes=num_classes, seed=seed + 5, activation="relu", scale=model_scale
    )
    data = synthetic_cifar(
        num_samples=2 * samples_per_side, num_classes=num_classes, noise=noise, seed=seed
    )
    members = data.subset(np.arange(samples_per_side))
    nonmembers = data.subset(np.arange(samples_per_side, 2 * samples_per_side))
    train_target_model(model, members, epochs=epochs)
    attack = MembershipInferenceAttack(
        model, probes_per_class=probes_per_class, seed=seed
    )
    blocks, labels = attack.precompute_blocks(members, nonmembers)
    rows = []
    for protected in protected_sets:
        aucs = [
            attack.run_from_blocks(blocks, labels, protected=protected, seed=s).score
            for s in range(attack_seeds)
        ]
        rows.append(
            ExperimentRow(
                label=f"MIA/{model_name}",
                protected=tuple(sorted(protected)),
                score=float(np.mean(aucs)),
                metric="AUC",
                extra={"std": float(np.std(aucs)), "seeds": attack_seeds},
            )
        )
    return rows


# ----------------------------------------------------------------------
# DPIA (Tables 1 & 5)
# ----------------------------------------------------------------------

def _dpia_reference_model() -> Sequential:
    """The paper's DPIA victim/attacker model (LeNet-5 gender classifier)."""
    return lenet5(num_classes=2, seed=9, activation="sigmoid")


def simulate_fl_for_dpia(
    policy: ProtectionPolicy,
    cycles: int = 36,
    lr: float = 0.02,
    batch_size: int = 16,
    num_samples: int = 600,
    world_seed: int = 1,
    seed: int = 0,
    model_factory: Optional[Callable[[], Sequential]] = None,
):
    """Victim-side FL simulation for DPIA.

    The victim trains a gender classifier on LFW-like data; in each
    cycle its batch either carries the private property (all-property
    samples) or not, alternating — giving balanced ground truth.  Returns
    ``(snapshots, protected_per_cycle, truth)`` where snapshots includes the
    initial state (length ``cycles + 1``).

    ``model_factory`` (a zero-argument callable returning a fresh binary
    classifier) swaps the paper's LeNet-5 victim for another workload,
    e.g. ``lambda: vit_tiny(num_classes=2, seed=9)``.  The synthetic LFW
    shape follows the model's ``input_shape``.
    """
    rng = np.random.default_rng(seed)
    if model_factory is None:
        data = synthetic_lfw(num_samples=num_samples, num_classes=2, seed=world_seed)
        model = _dpia_reference_model()
    else:
        model = model_factory()
        data = synthetic_lfw(
            num_samples=num_samples,
            num_classes=2,
            shape=model.input_shape,
            seed=world_seed,
        )
    shielded = ShieldedModel(model, policy, batch_size=batch_size)
    snapshots = [model.get_weights()]
    protected_per_cycle: List[frozenset] = []
    truth: List[int] = []
    prop_idx = np.flatnonzero(data.properties == 1)
    nonprop_idx = np.flatnonzero(data.properties == 0)
    onehot = data.one_hot_labels()
    for cycle in range(cycles):
        with_property = cycle % 2 == 0
        pool = prop_idx if with_property else nonprop_idx
        idx = rng.choice(pool, size=batch_size, replace=False)
        protected_per_cycle.append(shielded.begin_cycle(cycle=cycle))
        shielded.train_step(data.x[idx], onehot[idx], lr=lr)
        shielded.end_cycle()
        snapshots.append(model.get_weights())
        truth.append(1 if with_property else 0)
    # The final snapshot belongs to the last cycle's protection context.
    protected_per_cycle.append(protected_per_cycle[-1])
    return snapshots, protected_per_cycle, truth


def _dpia_auc(
    policy: ProtectionPolicy,
    cycles: int,
    lr: float,
    batches_per_snapshot: int,
    world_seed: int,
    aux_sample_seed: int,
    seed: int,
    model_factory: Optional[Callable[[], Sequential]] = None,
) -> float:
    snapshots, protected_per_cycle, truth = simulate_fl_for_dpia(
        policy,
        cycles=cycles,
        lr=lr,
        world_seed=world_seed,
        seed=seed,
        model_factory=model_factory,
    )
    attacker_model = (
        _dpia_reference_model() if model_factory is None else model_factory()
    )
    if model_factory is None:
        auxiliary = synthetic_lfw(
            num_samples=400, num_classes=2, seed=world_seed, sample_seed=aux_sample_seed
        )
    else:
        auxiliary = synthetic_lfw(
            num_samples=400,
            num_classes=2,
            shape=attacker_model.input_shape,
            seed=world_seed,
            sample_seed=aux_sample_seed,
        )
    attack = PropertyInferenceAttack(
        attacker_model,
        batch_size=16,
        batches_per_snapshot=batches_per_snapshot,
        seed=seed,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = attack.run(snapshots, auxiliary, protected_per_cycle, truth, lr=lr)
    return result.score


def dpia_experiment(
    policies: Sequence[Tuple[str, ProtectionPolicy]],
    cycles: int = 36,
    lr: float = 0.02,
    batches_per_snapshot: int = 3,
    world_seed: int = 1,
    seed: int = 0,
    fast: bool = False,
    model_factory: Optional[Callable[[], Sequential]] = None,
) -> List[ExperimentRow]:
    """DPIA AUC per protection policy (Table 5's layout)."""
    if fast:
        cycles = min(cycles, 12)
        batches_per_snapshot = 1
    rows = []
    for label, policy in policies:
        auc = _dpia_auc(
            policy, cycles, lr, batches_per_snapshot, world_seed, 999, seed,
            model_factory=model_factory,
        )
        protected_union: frozenset = frozenset()
        for s in policy.all_possible_sets():
            protected_union = protected_union | s
        rows.append(
            ExperimentRow(
                label=label,
                protected=tuple(sorted(protected_union)),
                score=auc,
                metric="AUC",
                extra={"policy": policy.describe()},
            )
        )
    return rows


def v_mw_search(
    size_mw: int = 2,
    cycles: int = 24,
    lr: float = 0.02,
    random_candidates: int = 4,
    seed: int = 0,
    fast: bool = False,
) -> SearchResult:
    """The paper's §8.2 search: pick the ``V_MW`` worst for the attacker.

    Each candidate distribution is evaluated on a *validation* attack run
    (different aux sample draw and simulation seed from the final test),
    and the lowest-AUC candidate wins.
    """
    if fast:
        cycles = min(cycles, 10)
        random_candidates = 2
    layout = _dpia_reference_model().layout()
    positions = layout.num_layers - size_mw + 1
    candidates = candidate_distributions(
        positions, rng=np.random.default_rng(seed), random_candidates=random_candidates
    )
    # Always include the paper's tuned vector when shapes match.
    paper_vector = DPIA_BEST_V_MW.get(size_mw)
    if paper_vector is not None and len(paper_vector) == positions:
        candidates.append(paper_vector)

    def evaluate(v_mw: Tuple[float, ...]) -> float:
        policy = DynamicPolicy(layout, size_mw, v_mw, seed=seed + 11)
        return _dpia_auc(policy, cycles, lr, 1, world_seed=1, aux_sample_seed=555, seed=seed + 1)

    return search_v_mw(candidates, evaluate)
