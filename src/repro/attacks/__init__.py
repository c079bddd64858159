"""The three client-side inference attacks of the paper's §3.2.

* :class:`DataReconstructionAttack` (DRIA) — reconstructs training inputs
  from gradients via L-BFGS gradient matching (Zhu et al.).
* :class:`MembershipInferenceAttack` (MIA) — infers training-set membership
  from per-sample gradient features (Nasr et al.).
* :class:`PropertyInferenceAttack` (DPIA) — infers a private batch property
  from aggregated gradients across FL cycles (Melis et al.).

All three consume *leakage views*: gradients of protected layers are
removed from the attacker's data exactly as in the paper's evaluation.
"""

from .. import _lazy_exports

__all__ = [
    "AttackResult",
    "protected_to_frozenset",
    "DataReconstructionAttack",
    "DRIAReport",
    "MembershipInferenceAttack",
    "AttackSuite", "AttackVerdict", "SecurityReport",
    "PropertyInferenceAttack",
    "DPIADataset",
    "gradient_feature_vector",
    "features_from_weight_grads",
    "layer_feature_block",
    "layer_block_sizes",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "base": ("AttackResult", "protected_to_frozenset"),
    "dria": ("DataReconstructionAttack", "DRIAReport"),
    "features": (
        "features_from_weight_grads",
        "gradient_feature_vector",
        "layer_block_sizes",
        "layer_feature_block",
    ),
    "mia": ("MembershipInferenceAttack",),
    "suite": ("AttackSuite", "AttackVerdict", "SecurityReport"),
    "dpia": ("DPIADataset", "PropertyInferenceAttack"),
})
