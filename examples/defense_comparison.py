#!/usr/bin/env python
"""Compare GradSec with the alternative defences of the paper's §9.

Runs, on the same substrate:

* **GradSec** (static {L2, L5}) — hardware-shielded selective training;
* **PPFL** — layer-wise training with everything in the TEE;
* **BatchCrypt** — Paillier-based homomorphic aggregation;
* **DP** — clip-and-noise on updates;
* **Gecko** — aggressive weight quantization;

and prints what each one costs (device time / crypto time / accuracy)
next to what it protects against.

Run:  python examples/defense_comparison.py   (~1 minute)
"""

import time

import numpy as np

from repro.baselines import BatchCrypt, PPFLTrainer, QuantizationConfig, quantize_model
from repro.core import ShieldedModel, StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import GaussianMechanism
from repro.nn import flatten_weights, lenet5
from repro.tee import CostModel


def main() -> None:
    dataset = synthetic_cifar(num_samples=96, num_classes=5, seed=0)
    labels = dataset.one_hot_labels()
    rows = []

    # --- GradSec -------------------------------------------------------
    model = lenet5(num_classes=5, scale=0.5, seed=1)
    shielded = ShieldedModel(
        model, StaticPolicy(model, ["L2", "L5"]), batch_size=16, cost_model=CostModel(batch_size=16)
    )
    rng = np.random.default_rng(0)
    shielded.begin_cycle()
    for batch in dataset.batches(16, rng=rng, drop_last=True):
        shielded.train_step(batch.x, batch.y, lr=0.2)
    shielded.end_cycle()
    rows.append(
        (
            "GradSec {L2,L5}",
            f"device +{shielded.simulated_cost.kernel_seconds + shielded.simulated_cost.alloc_seconds:.2f}s TEE",
            "client-side DRIA+MIA",
            f"accuracy untouched ({model.accuracy(dataset.x, labels):.2f})",
        )
    )

    # --- PPFL ----------------------------------------------------------
    ppfl_model = lenet5(num_classes=5, scale=0.5, seed=1)
    ppfl = PPFLTrainer(ppfl_model, cost_model=CostModel(batch_size=16))
    report = ppfl.train(dataset, lr=0.2, batch_size=16)
    rows.append(
        (
            "PPFL (layer-wise)",
            f"device +{report.simulated_cost.kernel_seconds + report.simulated_cost.alloc_seconds:.2f}s TEE, {report.cycles_used} phases",
            "all client-side leakage",
            "sequential schedule",
        )
    )

    # --- BatchCrypt ------------------------------------------------------
    batchcrypt = BatchCrypt(QuantizationConfig(value_bits=12, max_clients=4), key_bits=256)
    update = flatten_weights(model.get_weights())[:512]
    start = time.perf_counter()
    batchcrypt.aggregate_plaintext([update, update, update])
    he_time = time.perf_counter() - start
    rows.append(
        (
            "BatchCrypt (HE)",
            f"{he_time:.2f}s crypto for 512 params x3 clients",
            "server-side only",
            "client OS still sees gradients",
        )
    )

    # --- DP --------------------------------------------------------------
    mechanism = GaussianMechanism(clip_norm=1.0, sigma=1.0, seed=0)
    noisy = mechanism.privatize(update)
    distortion = np.linalg.norm(noisy - np.clip(update, -1, 1)) / (
        np.linalg.norm(update) + 1e-12
    )
    rows.append(
        (
            "DP (sigma=1.0)",
            "negligible compute",
            "server-side inference",
            f"update distorted {distortion:.1f}x",
        )
    )

    # --- Gecko -------------------------------------------------------------
    gecko_model = model.clone()
    quant = quantize_model(gecko_model, bits=2, x_eval=dataset.x, y_eval=labels)
    rows.append(
        (
            "Gecko (2-bit)",
            "negligible compute",
            "membership (partially)",
            f"accuracy {quant.accuracy_before:.2f} -> {quant.accuracy_after:.2f}",
        )
    )

    width = (22, 42, 26, 34)
    header = ("defence", "cost", "protects against", "side effect")
    print("".join(h.ljust(w) for h, w in zip(header, width)))
    print("-" * sum(width))
    for row in rows:
        print("".join(str(c).ljust(w) for c, w in zip(row, width)))


if __name__ == "__main__":
    main()
