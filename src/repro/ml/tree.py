"""CART decision tree (building block of the random forest).

Binary classification with Gini impurity, depth / leaf-size limits and
optional per-split feature subsampling (for forests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    prediction: float  # P(class 1) at this node
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeClassifier:
    """Binary CART tree.

    Parameters
    ----------
    max_depth: depth limit.
    min_samples_split: minimum node size to attempt a split.
    max_features: features examined per split ("sqrt", an int, or None for
        all) — the forest's decorrelation knob.
    rng: generator for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        max_features: int | str | None = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.max_features = max_features
        self.rng = rng or np.random.default_rng(0)
        self._root: Optional[_Node] = None

    def _n_features_per_split(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return min(d, int(self.max_features))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        self._root = self._grow(x, y, depth=0)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()) if y.size else 0.5)
        if (
            depth >= self.max_depth
            or y.size < self.min_samples_split
            or node.prediction in (0.0, 1.0)
        ):
            return node
        d = x.shape[1]
        features = self.rng.choice(d, size=self._n_features_per_split(d), replace=False)
        best = self._best_split(x, y, features)
        if best is None:
            return node
        feature, threshold = best
        mask = x[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    @staticmethod
    def _gini_split_cost(y_sorted: np.ndarray) -> np.ndarray:
        """Weighted Gini for every split point of a pre-sorted label array."""
        n = y_sorted.size
        left_pos = np.cumsum(y_sorted)[:-1]
        left_n = np.arange(1, n)
        right_pos = y_sorted.sum() - left_pos
        right_n = n - left_n
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        gini_l = 2 * p_l * (1 - p_l)
        gini_r = 2 * p_r * (1 - p_r)
        return (left_n * gini_l + right_n * gini_r) / n

    def _best_split(self, x: np.ndarray, y: np.ndarray, features: np.ndarray):
        best_cost = np.inf
        best: Optional[tuple] = None
        for feature in features:
            column = x[:, feature]
            order = np.argsort(column, kind="mergesort")
            col_sorted = column[order]
            y_sorted = y[order]
            costs = self._gini_split_cost(y_sorted)
            # A split is only valid between distinct column values.
            valid = col_sorted[:-1] < col_sorted[1:]
            if not valid.any():
                continue
            costs = np.where(valid, costs, np.inf)
            idx = int(np.argmin(costs))
            if costs[idx] < best_cost:
                best_cost = costs[idx]
                threshold = 0.5 * (col_sorted[idx] + col_sorted[idx + 1])
                best = (int(feature), float(threshold))
        return best

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(class 1) for each row."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def depth(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
