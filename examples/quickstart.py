#!/usr/bin/env python
"""Quickstart: shield two non-successive LeNet-5 layers with static GradSec.

Trains a LeNet-5 on synthetic CIFAR-100-like data with layers L2 and L5
inside the (simulated) TrustZone enclave — the configuration that defends
against DRIA and MIA simultaneously — and shows:

* protected training computes exactly the same model as unprotected
  training (the enclave changes *visibility*, not math);
* the normal-world leakage view is missing the protected layers' gradients;
* the TEE memory and simulated device-time costs of the configuration.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import ShieldedModel, StaticPolicy
from repro.data import synthetic_cifar
from repro.nn import lenet5
from repro.tee import CostModel


def main() -> None:
    print("=== GradSec quickstart: static protection of L2 + L5 ===\n")

    data = synthetic_cifar(num_samples=64, num_classes=10, seed=0)
    model = lenet5(num_classes=10, seed=42)
    print(model.summary(), "\n")

    policy = StaticPolicy(model, ["L2", "L5"])
    print(f"policy: {policy.describe()}")
    shielded = ShieldedModel(
        model, policy, batch_size=16, cost_model=CostModel(batch_size=16)
    )

    labels = data.one_hot_labels()
    shielded.begin_cycle()
    print(f"protected this cycle: {sorted(shielded.protected_layers)}")
    print(
        "normal-world copy of L2 weights while protected:",
        "scrubbed" if np.all(model.layer(2).params["weight"].data == 0) else "VISIBLE!?",
    )

    for step, start in enumerate(range(0, 48, 16)):
        loss = shielded.train_step(
            data.x[start : start + 16], labels[start : start + 16], lr=0.3
        )
        print(f"  step {step}: loss={loss:.4f}")

    leakage = shielded.end_cycle()

    print("\n--- what a normal-world attacker observed this cycle ---")
    for index, grads in enumerate(leakage.mean_gradients(), start=1):
        status = "HIDDEN (in enclave)" if grads is None else f"{sum(v.size for v in grads.values())} gradient values"
        print(f"  L{index}: {status}")
    print(f"  attacker feature vector length: {leakage.feature_vector().size}")
    print(f"  peak TEE memory: {leakage.peak_tee_bytes / 2**20:.3f} MiB")

    cost = shielded.simulated_cost
    print(
        f"\nsimulated Raspberry-Pi cost: user={cost.user_seconds:.3f}s "
        f"kernel={cost.kernel_seconds:.3f}s alloc={cost.alloc_seconds:.3f}s"
    )
    print(f"SMC world switches: {shielded.monitor.stats.calls}")


if __name__ == "__main__":
    main()
