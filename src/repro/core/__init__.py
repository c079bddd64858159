"""GradSec core: protection policies, the shielded trainer, leakage views.

This package implements the paper's primary contribution — selective,
possibly non-contiguous and cycle-varying protection of DNN layers inside a
TrustZone enclave during FL client training.
"""

from .. import _lazy_exports

__all__ = [
    "ProtectionPolicy", "NoProtection", "StaticPolicy", "DarknetzPolicy",
    "DynamicPolicy", "PeltaPolicy", "PolicyError",
    "LayerRef", "BlockSelector", "ModelLayout",
    "structured_slices", "policy_from_spec",
    "ShieldedModel", "GradSecTA", "CycleLeakage",
    "OverheadRow", "static_overhead", "dynamic_overhead", "policy_overhead",
    "SearchResult", "candidate_distributions", "search_v_mw",
    "PolicyPlanner", "PolicyRecommendation", "KNOWN_ATTACKS",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "leakage": ("CycleLeakage",),
    "overhead": ("OverheadRow", "dynamic_overhead", "policy_overhead", "static_overhead"),
    "planner": ("KNOWN_ATTACKS", "PolicyPlanner", "PolicyRecommendation"),
    "policy": (
        "BlockSelector",
        "DarknetzPolicy",
        "DynamicPolicy",
        "LayerRef",
        "ModelLayout",
        "NoProtection",
        "PeltaPolicy",
        "PolicyError",
        "ProtectionPolicy",
        "StaticPolicy",
        "policy_from_spec",
        "structured_slices",
    ),
    "search": ("SearchResult", "candidate_distributions", "search_v_mw"),
    "shielded": ("GradSecTA", "ShieldedModel"),
})
