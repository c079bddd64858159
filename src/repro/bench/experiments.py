"""High-level experiment drivers.

Each driver reproduces one of the paper's experimental pipelines end to end
(victim training, leakage collection, attack, metric) and returns plain
result rows.  The benchmark modules under ``benchmarks/`` and the examples
call these; tests exercise reduced configurations of the same code paths.

This module is the one place each attack's workload — the victim model, its
data and its budgets — is defined.  :func:`dria_workload` and
:func:`mia_workload` build one once and score any protected set against it;
the experiments below and :class:`repro.attacks.AttackSuite` both score through
them, so at equal budgets the suite's rows are the figures' rows.  A victim
comes from a ``model_factory``, called as
``model_factory(num_classes=..., seed=...)``; each experiment's default is the
paper's LeNet-5 victim for its attack.

All drivers accept a ``fast`` flag that shrinks the workload (fewer cycles,
probes, iterations) without changing the pipeline shape — used by the test
suite and CI-speed benchmark runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from ..attacks.base import AttackResult
from ..attacks.dpia import PropertyInferenceAttack
from ..attacks.dria import DataReconstructionAttack
from ..attacks.mia import MembershipInferenceAttack, train_target_model
from ..core.policy import DynamicPolicy, ProtectionPolicy
from ..core.search import DPIA_BEST_V_MW, SearchResult, candidate_distributions, search_v_mw
from ..core.shielded import ShieldedModel
from ..data.synthetic import synthetic_cifar, synthetic_lfw
from ..nn.model import Sequential
from ..nn.zoo import lenet5

__all__ = [
    "ExperimentRow",
    "Workload",
    "dria_workload",
    "dria_experiment",
    "mia_workload",
    "mia_experiment",
    "simulate_fl_for_dpia",
    "dpia_experiment",
    "v_mw_search",
    "DPIA_BEST_V_MW",
]

ModelFactory = Callable[..., Sequential]


@dataclass
class ExperimentRow:
    """One (configuration, score) result row."""

    label: str
    protected: Tuple[int, ...]
    score: float
    metric: str
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One attack's victim and data, built once.

    ``score(protected)`` runs the attack against one protected set.
    """

    model: Sequential
    score: Callable[[Iterable[int]], AttackResult]

    def rows(self, protected_sets: Sequence[Tuple[int, ...]]) -> List[ExperimentRow]:
        """One ``ATTACK/model`` row per protected set."""
        rows = []
        for protected in protected_sets:
            result = self.score(protected)
            rows.append(
                ExperimentRow(
                    f"{result.attack}/{self.model.name}",
                    tuple(sorted(protected)),
                    result.score,
                    result.metric,
                    result.detail,
                )
            )
        return rows


# ----------------------------------------------------------------------
# DRIA (Figure 5)
# ----------------------------------------------------------------------

def dria_workload(
    model_factory: ModelFactory = lenet5,
    iterations: int = 150,
    num_classes: int = 10,
    seed: int = 0,
) -> Workload:
    """The DRIA victim and the one private sample whose gradients it leaks."""
    model = model_factory(num_classes=num_classes, seed=seed + 1)
    data = synthetic_cifar(
        num_samples=4, num_classes=num_classes, shape=model.input_shape, seed=seed
    )
    attack = DataReconstructionAttack(model, iterations=iterations, seed=seed)
    return Workload(model, partial(attack.run, data.x[:1], data.one_hot_labels()[:1]))


def dria_experiment(
    protected_sets: Sequence[Tuple[int, ...]],
    model_factory: ModelFactory = lenet5,
    iterations: int = 150,
    num_classes: int = 10,
    seed: int = 0,
    fast: bool = False,
) -> List[ExperimentRow]:
    """ImageLoss of gradient-matching reconstruction per protected set."""
    if fast:
        iterations = min(iterations, 30)
    return dria_workload(model_factory, iterations, num_classes, seed).rows(protected_sets)


# ----------------------------------------------------------------------
# MIA (Figure 6)
# ----------------------------------------------------------------------

def mia_workload(
    model_factory: ModelFactory = partial(lenet5, activation="relu"),
    num_classes: int = 30,
    samples_per_side: int = 240,
    epochs: int = 12,
    probes_per_class: int = 120,
    attack_seeds: int = 3,
    noise: float = 0.45,
    seed: int = 0,
) -> Workload:
    """An overfit MIA target and its probes' gradient features.

    The target trains and every probe's per-layer feature block is computed
    here, once; a protected set only drops blocks.  ``score`` averages the
    held-out AUC over the train/test splits ``range(attack_seeds)``.
    """
    model = model_factory(num_classes=num_classes, seed=seed + 5)
    data = synthetic_cifar(
        num_samples=2 * samples_per_side,
        num_classes=num_classes,
        shape=model.input_shape,
        noise=noise,
        seed=seed,
    )
    members = data.subset(np.arange(samples_per_side))
    nonmembers = data.subset(np.arange(samples_per_side, 2 * samples_per_side))
    train_target_model(model, members, epochs=epochs)
    attack = MembershipInferenceAttack(
        model, probes_per_class=probes_per_class, seed=seed
    )
    blocks, labels = attack.precompute_blocks(members, nonmembers)

    def score(protected: Iterable[int]) -> AttackResult:
        runs = [
            attack.run_from_blocks(blocks, labels, protected=protected, seed=s)
            for s in range(attack_seeds)
        ]
        aucs = [run.score for run in runs]
        return AttackResult(
            "MIA",
            runs[0].protected,
            float(np.mean(aucs)),
            "AUC",
            {"std": float(np.std(aucs)), "seeds": attack_seeds},
        )

    return Workload(model, score)


def mia_experiment(
    protected_sets: Sequence[Tuple[int, ...]],
    model_factory: ModelFactory = partial(lenet5, activation="relu"),
    num_classes: int = 30,
    samples_per_side: int = 240,
    epochs: int = 12,
    probes_per_class: int = 120,
    attack_seeds: int = 3,
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
        num_classes = min(num_classes, 10)
    return mia_workload(
        model_factory, num_classes, samples_per_side, epochs,
        probes_per_class, attack_seeds, noise, seed,
    ).rows(protected_sets)


# ----------------------------------------------------------------------
# DPIA (Tables 1 & 5)
# ----------------------------------------------------------------------

def simulate_fl_for_dpia(
    policy: ProtectionPolicy,
    cycles: int = 36,
    lr: float = 0.02,
    batch_size: int = 16,
    num_samples: int = 600,
    world_seed: int = 1,
    seed: int = 0,
    model_factory: ModelFactory = lenet5,
):
    """Victim-side FL simulation for DPIA.

    The victim, ``model_factory(num_classes=2, seed=9)``, trains a gender
    classifier on LFW-like data shaped to its input; in each cycle its
    batch either carries the private property (all-property samples) or
    not, alternating — giving balanced ground truth.  Returns
    ``(snapshots, protected_per_cycle, truth)`` where snapshots includes the
    initial state (length ``cycles + 1``).
    """
    rng = np.random.default_rng(seed)
    model = model_factory(num_classes=2, seed=9)
    data = synthetic_lfw(num_samples, 2, shape=model.input_shape, seed=world_seed)
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
    model_factory: ModelFactory = lenet5,
) -> float:
    snapshots, protected_per_cycle, truth = simulate_fl_for_dpia(
        policy,
        cycles=cycles,
        lr=lr,
        world_seed=world_seed,
        seed=seed,
        model_factory=model_factory,
    )
    attacker_model = model_factory(num_classes=2, seed=9)
    auxiliary = synthetic_lfw(
        400, 2, shape=attacker_model.input_shape, seed=world_seed, sample_seed=aux_sample_seed
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
    model_factory: ModelFactory = lenet5,
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
        rows.append(
            ExperimentRow(
                label=label,
                protected=tuple(sorted(frozenset().union(*policy.all_possible_sets()))),
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
    layout = lenet5().layout()
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
