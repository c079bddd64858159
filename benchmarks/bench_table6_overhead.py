"""Table 6 — CPU time and TEE memory per protected-layer configuration.

Regenerates every row of the paper's Table 6 (LeNet-5, CIFAR-100 shapes,
batch 32) from the calibrated device cost model, side by side with the
published numbers, and times one *actual* shielded training step as the
pytest-benchmark measurement.
"""

import numpy as np
import pytest

from repro.bench.reference import (
    TABLE6_BASELINE,
    TABLE6_DYNAMIC_MW2,
    TABLE6_DYNAMIC_MW3,
    TABLE6_DYNAMIC_MW4,
    TABLE6_STATIC,
)
from repro.bench.tables import layers_label, print_table
from repro.bench.experiments import DPIA_BEST_V_MW
from repro.core import DynamicPolicy, ShieldedModel, StaticPolicy
from repro.nn import lenet5, one_hot
from repro.tee import CostModel


@pytest.fixture(scope="module")
def model():
    return lenet5()


@pytest.fixture(scope="module")
def cost_model():
    return CostModel(batch_size=32)


def _row(label, cost, paper):
    text = (
        f"  {label:<14} model: {cost.user_seconds:5.3f}+{cost.kernel_seconds:5.3f}"
        f"+{cost.alloc_seconds:5.3f}s  {cost.tee_memory_mib:5.3f} MiB"
    )
    if paper is not None:
        pu, pk, pa, pm = paper
        text += f"   | paper: {pu:5.3f}+{pk:5.3f}+{pa:5.3f}s  {pm:5.3f} MiB"
    return text


def test_table6_static_rows(model, cost_model, show, benchmark):
    baseline = cost_model.cycle_cost(model)
    rows = [_row("baseline", baseline, TABLE6_BASELINE[:3] + (0.0,))]
    for config in sorted(TABLE6_STATIC):
        cost = cost_model.cycle_cost(model, config)
        rows.append(_row(layers_label(config), cost, TABLE6_STATIC[config]))
    print_table("Table 6 (static GradSec): user+kernel+alloc, TEE memory", rows)

    # Benchmark: one shielded LeNet-5 training step with L2+L5 in the TEE.
    shielded_model = lenet5(num_classes=100, seed=1)
    shielded = ShieldedModel(shielded_model, StaticPolicy(shielded_model, ["L2", "L5"]), batch_size=8)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 3, 32, 32))
    y = one_hot(rng.integers(0, 100, 8), 100)
    shielded.begin_cycle()

    benchmark.pedantic(
        lambda: shielded.train_step(x, y, lr=0.1), rounds=3, iterations=1
    )
    shielded.end_cycle()

    # Shape assertions: the model must stay within 15% of the paper's totals.
    for config, (pu, pk, pa, pm) in TABLE6_STATIC.items():
        cost = cost_model.cycle_cost(model, config)
        assert cost.total_seconds == pytest.approx(pu + pk + pa, rel=0.15)
        assert cost.tee_memory_mib == pytest.approx(pm, rel=0.10)


def test_table6_dynamic_rows(model, cost_model, show, benchmark):
    references = {
        2: TABLE6_DYNAMIC_MW2,
        3: TABLE6_DYNAMIC_MW3,
        4: TABLE6_DYNAMIC_MW4,
    }
    rows = []
    for size_mw, reference in references.items():
        policy = DynamicPolicy(model, size_mw, DPIA_BEST_V_MW[size_mw], seed=0)
        avg, per_window = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
        rows.append(f"  -- MW={size_mw} --")
        for window, cost in per_window.items():
            rows.append(_row(layers_label(window), cost, reference.get(window)))
        rows.append(_row(f"AVG V_MW={DPIA_BEST_V_MW[size_mw]}", avg, None))
    print_table("Table 6 (dynamic GradSec): per-window and weighted average", rows)

    def average_all():
        for size_mw in (2, 3, 4):
            policy = DynamicPolicy(model, size_mw, DPIA_BEST_V_MW[size_mw], seed=0)
            cost_model.dynamic_cost(model, policy.windows, policy.v_mw)

    benchmark.pedantic(average_all, rounds=5, iterations=1)

    # The L5 allocation cliff must dominate windows containing L5.
    _, per_window = cost_model.dynamic_cost(
        model,
        [(1, 2), (4, 5)],
        [0.5, 0.5],
    )
    assert per_window[(4, 5)].alloc_seconds > 5 * per_window[(1, 2)].alloc_seconds
