"""GradSec core: protection policies, the shielded trainer, leakage views.

This package implements the paper's primary contribution — selective,
possibly non-contiguous and cycle-varying protection of DNN layers inside a
TrustZone enclave during FL client training.
"""

from .leakage import CycleLeakage
from .overhead import OverheadRow, dynamic_overhead, policy_overhead, static_overhead
from .planner import KNOWN_ATTACKS, PolicyPlanner, PolicyRecommendation
from .policy import (
    BlockSelector,
    DarknetzPolicy,
    DynamicPolicy,
    LayerRef,
    ModelLayout,
    NoProtection,
    PeltaPolicy,
    PolicyError,
    ProtectionPolicy,
    StaticPolicy,
    contiguous_slices,
    policy_from_spec,
    structured_slices,
)
from .search import SearchResult, candidate_distributions, search_v_mw
from .shielded import GradSecTA, ShieldedModel

__all__ = [
    "ProtectionPolicy", "NoProtection", "StaticPolicy", "DarknetzPolicy",
    "DynamicPolicy", "PeltaPolicy", "PolicyError",
    "LayerRef", "BlockSelector", "ModelLayout",
    "contiguous_slices", "structured_slices", "policy_from_spec",
    "ShieldedModel", "GradSecTA", "CycleLeakage",
    "OverheadRow", "static_overhead", "dynamic_overhead", "policy_overhead",
    "SearchResult", "candidate_distributions", "search_v_mw",
    "PolicyPlanner", "PolicyRecommendation", "KNOWN_ATTACKS",
]
