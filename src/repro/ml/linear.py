"""Logistic regression (binary attack classifier).

Trained with full-batch gradient descent + L2 regularisation; small and
deterministic, which is what the MIA attack model needs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegression:
    """Binary logistic regression.

    Parameters
    ----------
    lr: gradient-descent step size.
    iterations: number of full-batch steps.
    l2: ridge penalty strength.
    """

    def __init__(self, lr: float = 0.5, iterations: int = 300, l2: float = 1e-3) -> None:
        self.lr = float(lr)
        self.iterations = int(iterations)
        self.l2 = float(l2)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("y must be binary (0/1)")
        n, d = x.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.iterations):
            p = _sigmoid(x @ w + b)
            err = p - y
            grad_w = x.T @ err / n + self.l2 * w
            grad_b = err.mean()
            w -= self.lr * grad_w
            b -= self.lr * grad_b
        self.coef_ = w
        self.intercept_ = float(b)
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(x, dtype=np.float64) @ self.coef_ + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(class 1) for each row."""
        return _sigmoid(self.decision_function(x))
