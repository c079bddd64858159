"""Tests for the overhead-row helpers (Table 6 row builders)."""

import pytest

from repro.core import (
    DynamicPolicy,
    NoProtection,
    PeltaPolicy,
    StaticPolicy,
    dynamic_overhead,
    policy_overhead,
    static_overhead,
)
from repro.nn import lenet5, vit_tiny
from repro.tee import CostModel


@pytest.fixture(scope="module")
def model():
    return lenet5()


class TestStaticOverhead:
    def test_baseline_has_zero_overhead(self, model):
        row = static_overhead(model, ())
        assert row.overhead_percent == pytest.approx(0.0)
        assert row.label == "baseline"

    def test_label_from_layers(self, model):
        assert static_overhead(model, (2, 5)).label == "L2+L5"

    def test_overhead_positive_for_protection(self, model):
        assert static_overhead(model, (2,)).overhead_percent > 0


class TestDynamicOverhead:
    def test_returns_average_and_windows(self, model):
        policy = DynamicPolicy(model, 2, [0.25] * 4, seed=0)
        avg, rows = dynamic_overhead(model, policy)
        assert avg.average
        assert len(rows) == 4

    def test_average_time_between_window_extremes(self, model):
        policy = DynamicPolicy(model, 2, [0.25] * 4, seed=0)
        avg, rows = dynamic_overhead(model, policy)
        times = [r.cost.total_seconds for r in rows]
        assert min(times) <= avg.cost.total_seconds <= max(times)

    def test_average_memory_is_worst_window(self, model):
        policy = DynamicPolicy(model, 2, [0.25] * 4, seed=0)
        avg, rows = dynamic_overhead(model, policy)
        assert avg.cost.tee_memory_bytes == max(r.cost.tee_memory_bytes for r in rows)


class TestPolicyOverhead:
    def test_dispatches_on_policy_type(self, model):
        cost_model = CostModel()
        static = policy_overhead(model, StaticPolicy(model, ["L2", "L5"]), cost_model)
        dynamic = policy_overhead(
            model, DynamicPolicy(model, 2, [0.25] * 4, seed=0), cost_model
        )
        none = policy_overhead(model, NoProtection(model), cost_model)
        assert "static" in static.label
        assert "dynamic" in dynamic.label
        assert none.overhead_percent == pytest.approx(0.0)
        assert dynamic.average

    def test_pelta_window_is_priced_like_a_dynamic_window(self):
        model = vit_tiny()
        cost_model = CostModel()
        policy = PeltaPolicy(model, size_mw=1, v_mw=(0.25, 0.75), seed=0)
        row = policy_overhead(model, policy, cost_model)
        expected, _ = cost_model.dynamic_cost(model, policy.windows, policy.v_mw)
        assert row.average and row.label == policy.describe()
        assert row.cost == expected
