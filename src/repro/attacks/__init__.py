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

from .base import AttackResult, protected_to_frozenset
from .dria import DataReconstructionAttack, DRIAReport, infer_label_from_gradients
from .features import (
    features_from_weight_grads,
    gradient_feature_vector,
    layer_block_sizes,
    layer_feature_block,
)
from .mia import MembershipInferenceAttack
from .suite import AttackSuite, AttackVerdict, SecurityReport
from .dpia import DPIADataset, PropertyInferenceAttack

__all__ = [
    "AttackResult",
    "protected_to_frozenset",
    "DataReconstructionAttack",
    "DRIAReport",
    "infer_label_from_gradients",
    "MembershipInferenceAttack",
    "AttackSuite", "AttackVerdict", "SecurityReport",
    "PropertyInferenceAttack",
    "DPIADataset",
    "gradient_feature_vector",
    "features_from_weight_grads",
    "layer_feature_block",
    "layer_block_sizes",
]
