"""Related-work baselines (the paper's §9), implemented from scratch.

* :mod:`~repro.baselines.paillier` / :mod:`~repro.baselines.batchcrypt` —
  additively homomorphic aggregation (BatchCrypt), the software HE
  alternative to TEEs.
* :mod:`~repro.baselines.ppfl` — layer-wise always-in-TEE training (PPFL).
* :mod:`~repro.baselines.gecko` — quantization for membership privacy.

(The differential-privacy baseline lives in :mod:`repro.fl.dp`.)
"""

from .batchcrypt import BatchCrypt, QuantizationConfig
from .gecko import QuantizationReport, quantize_model
from .paillier import PaillierPrivateKey, PaillierPublicKey, generate_keypair
from .ppfl import PPFLReport, PPFLTrainer

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "generate_keypair",
    "BatchCrypt",
    "QuantizationConfig",
    "PPFLTrainer",
    "PPFLReport",
    "quantize_model",
    "QuantizationReport",
]
