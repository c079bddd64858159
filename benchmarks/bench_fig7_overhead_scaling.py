"""Figure 7 — training time (A, C) and TEE memory (B, D) scaling.

Sweeps the number of protected layers for static GradSec and the moving
window size for dynamic GradSec, printing the two series each panel plots.
"""

import pytest

from repro.bench.experiments import DPIA_BEST_V_MW
from repro.bench.tables import layers_label, print_table
from repro.core import DynamicPolicy
from repro.nn import lenet5
from repro.tee import CostModel


@pytest.fixture(scope="module")
def model():
    return lenet5()


@pytest.fixture(scope="module")
def cost_model():
    return CostModel(batch_size=32)


def test_fig7_static_scaling(model, cost_model, show, benchmark):
    """Panels A/B: growing static protected sets (head-anchored slices)."""
    configs = [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)]
    baseline = cost_model.cycle_cost(model)

    def sweep():
        return [cost_model.cycle_cost(model, c) for c in configs]

    costs = benchmark.pedantic(sweep, rounds=5, iterations=1)
    rows = [
        f"  {len(c):d} layers [{layers_label(c):<16}] "
        f"time={cost.total_seconds:6.3f}s ({cost.overhead_percent(baseline):+6.1f}%) "
        f"mem={cost.tee_memory_mib:5.3f} MiB"
        for c, cost in zip(configs, costs)
    ]
    print_table("Figure 7 A/B: static GradSec scaling (time, TEE memory)", rows)

    # Shape: time and memory grow monotonically with the protected count.
    totals = [c.total_seconds for c in costs]
    memories = [c.tee_memory_bytes for c in costs]
    assert totals == sorted(totals)
    assert memories == sorted(memories)


def test_fig7_dynamic_scaling(model, cost_model, show, benchmark):
    """Panels C/D: moving-window sizes 2..4 with the tuned V_MW."""

    def sweep():
        out = {}
        for size_mw in (2, 3, 4):
            policy = DynamicPolicy(model, size_mw, DPIA_BEST_V_MW[size_mw], seed=0)
            avg, _ = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
            out[size_mw] = avg
        return out

    averages = benchmark.pedantic(sweep, rounds=5, iterations=1)
    baseline = cost_model.cycle_cost(model)
    rows = [
        f"  MW={size}  avg time={cost.total_seconds:6.3f}s "
        f"({cost.overhead_percent(baseline):+6.1f}%)  worst mem={cost.tee_memory_mib:5.3f} MiB"
        for size, cost in averages.items()
    ]
    print_table("Figure 7 C/D: dynamic GradSec scaling (time, worst TEE memory)", rows)

    # Shape: worst-case memory grows with the window size.
    memories = [averages[s].tee_memory_bytes for s in (2, 3, 4)]
    assert memories == sorted(memories)
    # MW=2 with the paper's V_MW stays far below MW=4 in average time.
    assert averages[2].total_seconds < averages[4].total_seconds
