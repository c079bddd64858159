"""Random forest — the paper's DPIA attack model (§8.2).

Bootstrap-aggregated CART trees with sqrt-feature subsampling.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Binary random forest.

    Parameters
    ----------
    n_estimators: number of trees.
    max_depth / min_samples_split: per-tree limits.
    max_features: per-split feature pool ("sqrt" by default).
    bootstrap: sample training rows with replacement per tree.
    seed: reproducible randomness for bootstraps and splits.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.seed = int(seed)
        self.trees_: List[DecisionTreeClassifier] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must align")
        root_rng = np.random.default_rng(self.seed)
        self.trees_ = []
        n = x.shape[0]
        for _ in range(self.n_estimators):
            tree_rng = np.random.default_rng(root_rng.integers(0, 2**63))
            if self.bootstrap:
                idx = tree_rng.integers(0, n, size=n)
                xs, ys = x[idx], y[idx]
            else:
                xs, ys = x, y
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                rng=tree_rng,
            )
            tree.fit(xs, ys)
            self.trees_.append(tree)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Average of per-tree P(class 1)."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        probs = np.stack([tree.predict_proba(x) for tree in self.trees_])
        return probs.mean(axis=0)
