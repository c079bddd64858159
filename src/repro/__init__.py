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
    shielded = ShieldedModel(model, StaticPolicy(model, ["L2", "L5"]))
    shielded.begin_cycle()
    shielded.train_step(x_batch, one_hot(y_batch, 10), lr=0.1)
    leak = shielded.end_cycle()      # what a normal-world attacker saw
    assert leak.mean_gradients()[1] is None   # L2's gradients never leaked
"""

import importlib
import sys

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


def _lazy_exports(package, exports):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``: a public name is
    imported from its submodule on first access, so an entry point loads
    only the cone it runs (DESIGN.md § Import cones).

    ``exports`` maps each submodule to the names it defines; a name equal
    to its submodule's stands for the submodule itself.  A resolved name is
    stored in the package, so every later access is a plain attribute.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *where})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__, {name: (name,) for name in __all__ if name != "__version__"}
)
