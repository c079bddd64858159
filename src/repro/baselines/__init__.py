"""Related-work baselines (the paper's §9), implemented from scratch.

* :mod:`~repro.baselines.paillier` / :mod:`~repro.baselines.batchcrypt` —
  additively homomorphic aggregation (BatchCrypt), the software HE
  alternative to TEEs.
* :mod:`~repro.baselines.ppfl` — layer-wise always-in-TEE training (PPFL).
* :mod:`~repro.baselines.gecko` — quantization for membership privacy.

(The differential-privacy baseline lives in :mod:`repro.fl.dp`.)
"""

from .. import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(__name__, {
    "batchcrypt": ("BatchCrypt", "QuantizationConfig"),
    "gecko": ("QuantizationReport", "quantize_model"),
    "paillier": ("PaillierPrivateKey", "PaillierPublicKey", "generate_keypair"),
    "ppfl": ("PPFLReport", "PPFLTrainer"),
})
