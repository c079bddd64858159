"""Classification metrics.

AUC is the paper's headline measure for MIA and DPIA (chosen over accuracy
following Ling et al. [33]); an AUC of 0.5 marks a defeated attack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roc_auc_score", "train_test_split"]


def roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Handles ties by midranking, matching the standard definition.
    """
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape:
        raise ValueError("y_true and y_score must have the same shape")
    n_pos = int(y_true.sum())
    n_neg = int((~y_true).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc_score needs both classes present")
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = y_score[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = ranks[y_true].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def train_test_split(
    *arrays: np.ndarray,
    test_fraction: float = 0.25,
    rng: np.random.Generator | None = None,
):
    """Shuffle-split arrays along axis 0; returns train/test interleaved."""
    if not arrays:
        raise ValueError("no arrays given")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape[0] != n:
            raise ValueError("arrays must have equal first dimension")
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(n)
    cut = n - int(round(test_fraction * n))
    train_idx, test_idx = order[:cut], order[cut:]
    out = []
    for a in arrays:
        out.append(a[train_idx])
        out.append(a[test_idx])
    return tuple(out)
