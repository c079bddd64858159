"""Byzantine-robust aggregation rules.

The paper's related work (SEAR [57]) combines TEEs with Byzantine-robust
aggregation; these are the standard robust rules a GradSec server can use
instead of plain FedAvg when some clients may send poisoned updates:

* coordinate-wise **median**;
* coordinate-wise **trimmed mean** (drop the b largest and smallest);
* **Krum** (select the update closest to its n-f-2 nearest neighbours);
* **clipped mean** (rescale every update onto a shared norm ceiling, then
  average — the norm-bounding defence against scaling attacks).

All operate on flat update vectors (see
:func:`repro.nn.serialize.flatten_weights`).  :data:`RULES` names the full
rule vocabulary the server/simulator configs accept (``fedavg`` lives in
:mod:`repro.fl.aggregation`; the rest dispatch through
:func:`apply_rule`).  Every rule here is deterministic: given the same
multiset of updates *in the same order* it returns the same bits, and the
only order-sensitive step — Krum's tie-break — is pinned to the lowest
input index (see :func:`krum_index`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RULES",
    "coordinate_median",
    "trimmed_mean",
    "krum",
    "krum_index",
    "clipped_mean",
    "apply_rule",
]

#: The aggregation-rule vocabulary ``RoundConfig.rule`` / ``SimConfig.rule``
#: accept.  ``fedavg`` is the exact streaming reduce in
#: :mod:`repro.fl.aggregation`; the others are the robust rules below
#: (``clipped_fedavg`` is :func:`clipped_mean`).
RULES: Tuple[str, ...] = (
    "fedavg",
    "median",
    "trimmed_mean",
    "krum",
    "clipped_fedavg",
)

#: Element budget for one block of Krum's pairwise-distance computation:
#: a block of B rows against all n rows materialises ``B * n * d`` float64
#: temporaries, so B is chosen to keep that under ~512 MiB instead of the
#: dense path's n^2 * d.
_KRUM_BLOCK_ELEMENTS = 1 << 26


def _stack(updates: Sequence[np.ndarray]) -> np.ndarray:
    if not updates:
        raise ValueError("no updates to aggregate")
    matrix = np.stack([np.asarray(u, dtype=np.float64).ravel() for u in updates])
    return matrix


def coordinate_median(updates: Sequence[np.ndarray]) -> np.ndarray:
    """Coordinate-wise median — tolerates < n/2 arbitrary updates."""
    return np.median(_stack(updates), axis=0)


def trimmed_mean(updates: Sequence[np.ndarray], trim: int = 1) -> np.ndarray:
    """Coordinate-wise mean after dropping the ``trim`` extremes per side.

    The kept rows are summed exactly, rounded once and divided once: the
    same bits the sharded tree's streaming trimmed collect gives, so the
    shard count never changes a trimmed mean.
    """
    from .aggregation import CompensatedAccumulator

    matrix = _stack(updates)
    n = matrix.shape[0]
    if trim < 0:
        raise ValueError("trim must be non-negative")
    if 2 * trim >= n:
        raise ValueError(f"cannot trim {trim} from each side of {n} updates")
    total = CompensatedAccumulator(matrix.shape[1])
    for row in np.sort(matrix, axis=0)[trim : n - trim]:
        total.add(row)
    return total.value() / float(n - 2 * trim)


def _pairwise_sq_distances(matrix: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances, computed in bounded-memory blocks.

    Arithmetic is identical to the dense
    ``((matrix[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=2)`` —
    the same elementwise subtract/square and the same last-axis reduction
    per (i, j) pair — so the result is bitwise-equal to the dense path
    while peak temporary memory is ``block * n * d`` instead of
    ``n^2 * d`` (a 10^3-client round over a 10^5-parameter model needs
    ~0.5 GiB per block instead of ~8 TiB dense).
    """
    n, d = matrix.shape
    block = max(1, _KRUM_BLOCK_ELEMENTS // max(1, n * d))
    out = np.empty((n, n))
    for start in range(0, n, block):
        chunk = matrix[start : start + block]
        out[start : start + block] = (
            (chunk[:, None, :] - matrix[None, :, :]) ** 2
        ).sum(axis=2)
    return out


def krum_index(updates: Sequence[np.ndarray], num_byzantine: int = 1) -> int:
    """The index Krum selects: smallest neighbour score, ties broken low.

    The score of update i is the sum of squared distances to its
    ``n - f - 2`` nearest other updates (f = ``num_byzantine``).  When two
    updates score identically — duplicate payloads make this exact, not
    just close — the **lowest input index wins**, so the winner is a pure
    function of the (ordered) input sequence and never depends on
    floating-point argmin vagaries: ``np.argmin`` returns the first
    minimum, and the regression suite pins that contract.
    """
    matrix = _stack(updates)
    n = matrix.shape[0]
    if num_byzantine < 0:
        raise ValueError("num_byzantine must be non-negative")
    closest = n - num_byzantine - 2
    if closest < 1:
        raise ValueError(
            f"Krum needs n >= f + 3 (got n={n}, f={num_byzantine})"
        )
    distances = _pairwise_sq_distances(matrix)
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(distances[i], i)
        scores[i] = np.sort(others)[:closest].sum()
    return int(np.argmin(scores))


def krum(updates: Sequence[np.ndarray], num_byzantine: int = 1) -> np.ndarray:
    """Krum: return the single update with the smallest neighbour score.

    The winner is provably close to the honest majority when fewer than
    ``num_byzantine`` updates are hostile; see :func:`krum_index` for the
    deterministic lowest-index tie-break.
    """
    matrix = _stack(updates)
    return matrix[krum_index(updates, num_byzantine)].copy()


def clipped_mean(
    updates: Sequence[np.ndarray], clip_norm: Optional[float] = None
) -> np.ndarray:
    """Mean of norm-clipped updates (the ``clipped_fedavg`` rule).

    Every update whose L2 norm exceeds ``clip_norm`` is rescaled onto the
    ceiling before averaging, which bounds any single client's influence.
    Without an explicit ceiling the **median of the update norms** is used
    — a self-calibrating choice that needs no tuning and survives a
    minority of scaled updates (the attackers cannot move the median).
    """
    matrix = _stack(updates)
    norms = np.linalg.norm(matrix, axis=1)
    ceiling = float(np.median(norms)) if clip_norm is None else float(clip_norm)
    if ceiling < 0:
        raise ValueError("clip_norm must be non-negative")
    if ceiling > 0:
        factors = np.minimum(1.0, ceiling / np.maximum(norms, 1e-300))
    else:
        factors = np.zeros_like(norms)
    return (matrix * factors[:, None]).mean(axis=0)


def apply_rule(
    rule: str,
    updates: Sequence[np.ndarray],
    *,
    trim: int = 1,
    num_byzantine: int = 1,
    clip_norm: Optional[float] = None,
) -> np.ndarray:
    """Dispatch one robust rule over flat update vectors.

    ``rule`` is any :data:`RULES` entry except ``fedavg`` (the weighted
    exact reduce lives in :mod:`repro.fl.aggregation`).  Parameters that a
    small cohort cannot satisfy are clamped rather than raising — a
    degraded round with three survivors still aggregates:

    * ``trim`` is lowered to ``(n - 1) // 2`` so at least one row remains;
    * Krum's ``num_byzantine`` is lowered to ``n - 3``; cohorts smaller
      than 3 fall back to :func:`coordinate_median` (Krum is undefined).
    """
    if rule not in RULES or rule == "fedavg":
        raise ValueError(f"unknown robust rule {rule!r}; expected one of {RULES[1:]}")
    n = len(updates)
    if n == 0:
        raise ValueError("no updates to aggregate")
    if rule == "median":
        return coordinate_median(updates)
    if rule == "trimmed_mean":
        effective = min(int(trim), (n - 1) // 2)
        return trimmed_mean(updates, trim=max(0, effective))
    if rule == "krum":
        if n < 3:
            return coordinate_median(updates)
        effective = min(int(num_byzantine), n - 3)
        return krum(updates, num_byzantine=max(0, effective))
    return clipped_mean(updates, clip_norm=clip_norm)
