"""Membership Inference Attack (MIA) — Nasr et al. [39], client-side.

The attacker holds data it knows to be inside (D1) and outside (D2) the
training set, computes the target model's gradients on each probe sample,
and trains a binary classifier on the gradient features.  Protection is
evaluated the paper's way: the gradient columns of protected layers are
deleted from D_grad before the attack model ever sees them.

Feature design: membership is a *per-sample* signal, so each layer
contributes its sorted, norm-normalised per-unit gradient-norm profile
(the shape of the gradient's energy distribution — for the classification
head this encodes the softmax-error structure) plus the log gradient norm.
Sorting makes the block invariant to class/filter permutation, which keeps
the attack classifier from keying on class identity instead of membership.

Success metric: AUC of the attack classifier on held-out probes (0.5 =
defeated attack).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from ..data.datasets import ArrayDataset
from ..ml.linear import LogisticRegression
from ..ml.metrics import roc_auc_score, train_test_split
from ..ml.preprocess import StandardScaler
from ..nn.model import Sequential
from ..nn.optim import Adam
from .base import AttackResult, protected_to_frozenset

__all__ = ["MembershipInferenceAttack", "membership_feature_block", "train_target_model"]

AttackModelFactory = Callable[[], object]


def membership_feature_block(weight_grad: np.ndarray) -> np.ndarray:
    """Sorted, normalised per-unit norm profile + log gradient norm."""
    grad = np.asarray(weight_grad, dtype=np.float64)
    per_unit = np.sqrt((grad.reshape(grad.shape[0], -1) ** 2).sum(axis=1))
    total = float(np.sqrt((per_unit**2).sum())) + 1e-12
    profile = np.sort(per_unit / total)[::-1]
    return np.concatenate([profile, [np.log(total)]])


def train_target_model(
    model: Sequential,
    members: ArrayDataset,
    epochs: int = 3,
    lr: float = 3e-3,
    batch_size: int = 32,
) -> Sequential:
    """Fit the victim model on its member set (Adam, a few epochs).

    The MIA experiments use a lightly trained target: enough fitting that
    members and non-members have distinguishable gradients, but not the
    total memorisation that would make every layer's gradient norm a
    perfect membership oracle.
    """
    params = [p for layer in model.layers for p in layer.parameters()]
    optimizer = Adam(params, lr=lr)
    labels = members.one_hot_labels()
    for _ in range(epochs):
        for start in range(0, len(members), batch_size):
            x = members.x[start : start + batch_size]
            y = labels[start : start + batch_size]
            _, grads = model.loss_and_gradients(x, y)
            optimizer.step(
                [
                    grads[li][key]
                    for li, layer in enumerate(model.layers)
                    for key in sorted(layer.params)
                ]
            )
    return model


class MembershipInferenceAttack:
    """Gradient-based membership inference.

    Parameters
    ----------
    model:
        The (trained) target model.
    attack_model_factory:
        Builds the binary attack classifier; defaults to logistic
        regression on standardised features.
    probes_per_class:
        Upper bound on probe samples drawn from each of D1/D2.
    seed:
        Split and training randomness.
    """

    def __init__(
        self,
        model: Sequential,
        attack_model_factory: Optional[AttackModelFactory] = None,
        probes_per_class: int = 150,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.attack_model_factory = attack_model_factory or (
            lambda: LogisticRegression(lr=0.3, iterations=400, l2=3e-2)
        )
        self.probes_per_class = int(probes_per_class)
        self.seed = int(seed)

    def precompute_blocks(self, members: ArrayDataset, nonmembers: ArrayDataset):
        """Per-layer feature blocks for every probe, plus labels.

        Returns ``(blocks, labels)`` where ``blocks[layer_index]`` is a
        matrix with one row per probe.  Probe gradients do not depend on
        the protection config, so a sweep computes them once and scores
        each config with :meth:`run_from_blocks`.
        """
        layer_indices = [
            index
            for index in range(1, self.model.num_layers + 1)
            if "weight" in self.model.layer(index).params
        ]
        rows = {index: [] for index in layer_indices}
        labels: List[int] = []
        for dataset, label in ((members, 1), (nonmembers, 0)):
            count = min(self.probes_per_class, len(dataset))
            onehot = dataset.one_hot_labels()
            for i in range(count):
                grads = self.model.gradients_array(
                    dataset.x[i : i + 1], onehot[i : i + 1]
                )
                for index in layer_indices:
                    rows[index].append(
                        membership_feature_block(grads[index - 1]["weight"])
                    )
                labels.append(label)
        blocks = {index: np.stack(r) for index, r in rows.items()}
        return blocks, np.asarray(labels)

    def build_dgrad(
        self,
        members: ArrayDataset,
        nonmembers: ArrayDataset,
        protected: Iterable[int] = (),
    ):
        """The attacker's gradient dataset D_grad and its membership labels.

        One row per probe; protected layers' feature blocks are deleted
        (never present), exactly as the paper's evaluation removes the
        corresponding columns.
        """
        blocks, labels = self.precompute_blocks(members, nonmembers)
        return _visible_columns(blocks, labels, protected_to_frozenset(protected)), labels

    def run_from_blocks(
        self,
        blocks,
        labels: np.ndarray,
        protected: Iterable[int] = (),
        test_fraction: float = 0.3,
        seed: Optional[int] = None,
    ) -> AttackResult:
        """Train the attack model on the visible blocks, report its held-out AUC."""
        protected_set = protected_to_frozenset(protected)
        x = _visible_columns(blocks, labels, protected_set)
        if x.shape[1] == 0:
            # Everything hidden: the attacker can only guess.
            return AttackResult("MIA", protected_set, 0.5, "AUC", {"features": 0})
        rng = np.random.default_rng(self.seed if seed is None else seed)
        x_train, x_test, y_train, y_test = train_test_split(
            x, labels, test_fraction=test_fraction, rng=rng
        )
        scaler = StandardScaler()
        x_train = scaler.fit_transform(x_train)
        x_test = scaler.transform(x_test)
        attack_model = self.attack_model_factory()
        attack_model.fit(x_train, y_train)
        auc = roc_auc_score(y_test, attack_model.predict_proba(x_test))
        return AttackResult(
            attack="MIA",
            protected=protected_set,
            score=float(auc),
            metric="AUC",
            detail={"features": int(x.shape[1]), "probes": int(x.shape[0])},
        )

    def run(
        self,
        members: ArrayDataset,
        nonmembers: ArrayDataset,
        protected: Iterable[int] = (),
        test_fraction: float = 0.3,
    ) -> AttackResult:
        """Train the attack model and report its held-out AUC."""
        blocks, labels = self.precompute_blocks(members, nonmembers)
        return self.run_from_blocks(blocks, labels, protected, test_fraction)


def _visible_columns(blocks, labels: np.ndarray, protected: frozenset) -> np.ndarray:
    """D_grad's columns: the unprotected layers' blocks side by side."""
    visible = [blocks[index] for index in sorted(blocks) if index not in protected]
    return np.concatenate(visible, axis=1) if visible else np.zeros((len(labels), 0))
