"""``V_MW`` search — the paper's §8.2 procedure for dynamic GradSec.

To pick the moving-window distribution for a given ``size_MW``, the paper
trains one attack-model instance per candidate ``V_MW`` (each candidate
hides different gradient columns across cycles), evaluates each on a
validation set, and keeps the distribution whose attack instance performs
*worst* — i.e. the defence configuration that hurts the attacker the most —
then reports its AUC on a held-out test set.

This module implements that selection loop generically: the caller supplies
an ``evaluate(v_mw) -> float`` callable (higher = better for the attacker)
and a candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DPIA_BEST_V_MW", "SearchResult", "candidate_distributions", "search_v_mw"]

#: The paper's tuned ``V_MW`` per window size on LeNet-5 (§8.2 / Table 5).
DPIA_BEST_V_MW: Dict[int, Tuple[float, ...]] = {
    2: (0.2, 0.1, 0.6, 0.1),
    3: (0.1, 0.1, 0.8),
    4: (0.1, 0.9),
}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a ``V_MW`` search."""

    best_v_mw: Tuple[float, ...]
    best_score: float
    scores: Tuple[Tuple[Tuple[float, ...], float], ...]


def candidate_distributions(
    num_positions: int,
    rng: Optional[np.random.Generator] = None,
    random_candidates: int = 8,
) -> List[Tuple[float, ...]]:
    """Candidate ``V_MW`` pool: uniform, one-hot corners, and Dirichlet draws.

    The pool deliberately includes skewed distributions — the paper's best
    vector for MW=2 is [0.2, 0.1, 0.6, 0.1], far from uniform.
    """
    if num_positions <= 0:
        raise ValueError("num_positions must be positive")
    rng = rng or np.random.default_rng(0)
    candidates: List[Tuple[float, ...]] = [
        tuple(np.full(num_positions, 1.0 / num_positions))
    ]
    for hot in range(num_positions):
        v = np.full(num_positions, 0.1 / max(1, num_positions - 1))
        v[hot] = 1.0 - v.sum() + v[hot]
        candidates.append(tuple(v / v.sum()))
    for _ in range(random_candidates):
        v = rng.dirichlet(np.ones(num_positions))
        candidates.append(tuple(v))
    return candidates


def search_v_mw(
    candidates: Sequence[Sequence[float]],
    evaluate: Callable[[Tuple[float, ...]], float],
) -> SearchResult:
    """Evaluate every candidate and keep the one *worst for the attacker*.

    Parameters
    ----------
    candidates:
        ``V_MW`` vectors to try.
    evaluate:
        Returns the attack's validation score (e.g. AUC) under that vector;
        lower means the defence is working better.
    """
    if not candidates:
        raise ValueError("candidate pool is empty")
    scored: List[Tuple[Tuple[float, ...], float]] = []
    for candidate in candidates:
        vector = tuple(float(p) for p in candidate)
        scored.append((vector, float(evaluate(vector))))
    best_v, best_score = min(scored, key=lambda pair: pair[1])
    return SearchResult(best_v, best_score, tuple(scored))
