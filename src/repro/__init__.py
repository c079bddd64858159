"""GradSec reproduction: shielding federated learning against inference
attacks with (simulated) ARM TrustZone.

Reproduces *"Shielding Federated Learning Systems against Inference Attacks
with ARM TrustZone"* (Middleware '22) as a pure-Python library:

* :mod:`repro.core` — GradSec itself: static/dynamic layer-protection
  policies and the shielded (enclave-partitioned) trainer.
* :mod:`repro.tee` — the TrustZone/OP-TEE substrate: worlds, secure memory,
  SMC, secure storage, trusted I/O path, attestation, device cost model.
* :mod:`repro.nn` / :mod:`repro.autodiff` — the neural-network framework
  (Darknet stand-in) with double-backward autodiff.
* :mod:`repro.fl` — federated-learning server/clients with attestation-gated
  selection, secure aggregation and DP baselines.
* :mod:`repro.attacks` — DRIA, MIA and DPIA, evaluated against leakage views.
* :mod:`repro.bench` — drivers regenerating every table/figure of the paper.

Quickstart::

    from repro.nn import lenet5, one_hot
    from repro.core import ShieldedModel, StaticPolicy

    model = lenet5(num_classes=10)
    shielded = ShieldedModel(model, StaticPolicy(5, [2, 5]))
    shielded.begin_cycle()
    shielded.train_step(x_batch, one_hot(y_batch, 10), lr=0.1)
    leak = shielded.end_cycle()      # what a normal-world attacker saw
    assert leak.mean_gradients()[1] is None   # L2's gradients never leaked
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "api",
    "attacks",
    "autodiff",
    "baselines",
    "bench",
    "core",
    "data",
    "fl",
    "ml",
    "nn",
    "tee",
    "__version__",
]


def __getattr__(name):
    # PEP 562: a subpackage is imported on first access, so an entry point
    # loads only the cone it runs (DESIGN.md § Import cones).
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
