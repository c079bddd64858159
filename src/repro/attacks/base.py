"""Shared attack plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

__all__ = ["AttackResult", "protected_to_frozenset"]


def protected_to_frozenset(protected: Iterable[int] | None) -> FrozenSet[int]:
    """Normalise a protected-layer specification to a frozenset."""
    if protected is None:
        return frozenset()
    return frozenset(int(i) for i in protected)


@dataclass
class AttackResult:
    """Common result envelope for all three attacks."""

    attack: str
    protected: FrozenSet[int]
    score: float  # ImageLoss for DRIA, AUC for MIA/DPIA
    metric: str
    detail: dict = field(default_factory=dict)
