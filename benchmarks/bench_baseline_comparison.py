"""Related-work comparison (§9) — GradSec vs the alternative defences.

The paper argues qualitatively against each alternative; this benchmark
makes the arguments quantitative on the same substrate:

* **BatchCrypt (HE)** — aggregation hides individual updates from the
  server but costs orders of magnitude more compute per parameter than a
  TEE pass, and does nothing against a compromised *client* OS.
* **PPFL (always-in-TEE, layer-wise)** — strong protection, but the
  sequential schedule spends far more enclave time than GradSec's
  selective pass.
* **DP** — software-only, but pays in utility (update distortion) at noise
  levels that meaningfully hide gradients.
* **Gecko (quantization)** — cheap, but trades model accuracy for the
  privacy it provides.
"""

import time

import numpy as np
import pytest

from repro.baselines import BatchCrypt, PPFLTrainer, QuantizationConfig, quantize_model
from repro.bench.tables import print_table
from repro.core import ShieldedModel, StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import GaussianMechanism
from repro.nn import lenet5
from repro.tee import CostModel


def test_he_overhead_vs_tee_overhead(show, benchmark):
    """Relative cost of each defence over its own unprotected baseline.

    BatchCrypt's natural baseline is plaintext aggregation of the same
    vectors; GradSec's is unprotected on-device training. The paper's
    argument is that HE multiplies its baseline by orders of magnitude
    while the TEE multiplies its own by a small factor.
    """
    rng = np.random.default_rng(0)
    vector_size = 256
    vectors = [rng.normal(0, 0.3, vector_size) for _ in range(3)]
    batchcrypt = BatchCrypt(
        QuantizationConfig(value_bits=12, max_clients=4), key_bits=256
    )

    def he_round():
        return batchcrypt.aggregate_plaintext(vectors)

    start = time.perf_counter()
    aggregate = benchmark.pedantic(he_round, rounds=3, iterations=1)
    he_seconds = (time.perf_counter() - start) / 3

    start = time.perf_counter()
    for _ in range(50):
        plain = np.sum(vectors, axis=0)
    plain_seconds = (time.perf_counter() - start) / 50
    he_factor = he_seconds / max(plain_seconds, 1e-9)

    model = lenet5()
    cost_model = CostModel(batch_size=32)
    baseline = cost_model.cycle_cost(model)
    shielded = cost_model.cycle_cost(model, (2, 5))
    tee_factor = shielded.total_seconds / baseline.total_seconds

    print_table(
        "Defence overhead relative to its own unprotected baseline",
        [
            f"  BatchCrypt (Paillier-256, aggregation): {he_factor:10.0f}x plaintext",
            f"  GradSec {{L2,L5}} (device model, training): {tee_factor:8.2f}x plaintext",
            "  (and HE leaves a compromised client OS able to read the",
            "   gradients before encryption — the paper's §9 point)",
        ],
    )
    expected = np.sum([np.clip(v, -1, 1) for v in vectors], axis=0)
    np.testing.assert_allclose(aggregate, expected, atol=5e-3)
    assert he_factor > 100 * tee_factor


def test_ppfl_schedule_vs_gradsec(show, benchmark):
    """PPFL trains layer-by-layer fully in the enclave; GradSec shields a
    fixed subset once. Same data, same model, simulated device time."""
    dataset = synthetic_cifar(num_samples=48, num_classes=5, seed=0)

    def run_both():
        ppfl_model = lenet5(num_classes=5, scale=0.5, seed=1)
        ppfl = PPFLTrainer(ppfl_model, cost_model=CostModel(batch_size=16))
        ppfl_report = ppfl.train(dataset, lr=0.1, batch_size=16)

        gradsec_model = lenet5(num_classes=5, scale=0.5, seed=1)
        shielded = ShieldedModel(
            gradsec_model,
            StaticPolicy(gradsec_model, ["L2", "L5"]),
            batch_size=16,
            cost_model=CostModel(batch_size=16),
        )
        rng = np.random.default_rng(0)
        shielded.begin_cycle()
        for batch in dataset.batches(16, rng=rng, drop_last=True):
            shielded.train_step(batch.x, batch.y, lr=0.1)
        shielded.end_cycle()
        # PPFL holds one whole layer in the enclave at a time.
        ppfl_peak = max(
            layer.tee_memory_bytes(16) for layer in ppfl_model.layers if layer.params
        )
        return ppfl_report, shielded.simulated_cost, ppfl_peak

    ppfl_report, gradsec_cost, ppfl_peak = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    ppfl_cost = ppfl_report.simulated_cost
    print_table(
        "PPFL (layer-wise, always-in-TEE) vs GradSec {L2,L5} — simulated device time",
        [
            f"  PPFL   : kernel={ppfl_cost.kernel_seconds:7.3f}s alloc={ppfl_cost.alloc_seconds:7.3f}s "
            f"peak TEE={ppfl_peak / 2**20:5.3f} MiB over {ppfl_report.cycles_used} phases",
            f"  GradSec: kernel={gradsec_cost.kernel_seconds:7.3f}s alloc={gradsec_cost.alloc_seconds:7.3f}s",
        ],
    )
    assert ppfl_cost.kernel_seconds > gradsec_cost.kernel_seconds


def test_dp_utility_cost(show, benchmark):
    """DP distorts the update; the distortion needed to mask a gradient is
    what GradSec avoids by hiding it in hardware instead."""
    rng = np.random.default_rng(0)
    update = rng.normal(0, 0.1, 2000)

    def distortion_curve():
        out = {}
        for sigma in (0.1, 0.5, 1.0, 2.0):
            mechanism = GaussianMechanism(clip_norm=1.0, sigma=sigma, seed=1)
            noisy = mechanism.privatize(update, step=0)
            out[sigma] = float(np.linalg.norm(noisy - update) / np.linalg.norm(update))
        return out

    curve = benchmark.pedantic(distortion_curve, rounds=3, iterations=1)
    print_table(
        "DP baseline: relative update distortion vs noise multiplier",
        [f"  sigma={sigma:4.1f}: distortion {d:6.2f}x" for sigma, d in curve.items()],
    )
    assert curve[2.0] > curve[0.1]
    assert curve[1.0] > 1.0  # meaningful DP noise overwhelms this update


def test_gecko_accuracy_tradeoff(show, benchmark):
    """Quantization privacy is paid in accuracy; GradSec leaves the model
    untouched (bit-identical training, asserted elsewhere)."""
    data = synthetic_cifar(num_samples=160, num_classes=10, noise=0.2, seed=0)
    labels = data.one_hot_labels()

    def train_and_quantize():
        from repro.attacks.mia import train_target_model

        model = lenet5(num_classes=10, scale=0.5, activation="relu", seed=2)
        train_target_model(model, data, epochs=6)
        accuracy_full = model.accuracy(data.x, labels)
        report = quantize_model(model, bits=2, x_eval=data.x, y_eval=labels)
        return accuracy_full, report

    accuracy_full, report = benchmark.pedantic(train_and_quantize, rounds=1, iterations=1)
    print_table(
        "Gecko baseline: accuracy cost of aggressive quantization (2-bit)",
        [
            f"  full precision : accuracy {accuracy_full:.3f}",
            f"  2-bit quantized: accuracy {report.accuracy_after:.3f}",
        ],
    )
    assert report.accuracy_after <= accuracy_full
