"""The cost model must reproduce the paper's Table 6 within tolerance."""

import pytest

from repro.bench.reference import (
    TABLE6_BASELINE,
    TABLE6_DYNAMIC_MW2,
    TABLE6_STATIC,
)
from repro.nn import lenet5
from repro.tee import RASPBERRY_PI_3B, CostModel, CycleCost, SecureMemoryExhausted


@pytest.fixture(scope="module")
def model():
    return lenet5()


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


class TestBaseline:
    def test_baseline_user_time(self, model, cost_model):
        base = cost_model.cycle_cost(model)
        assert base.user_seconds == pytest.approx(TABLE6_BASELINE[0], rel=0.02)
        assert base.kernel_seconds == pytest.approx(TABLE6_BASELINE[1], rel=0.05)
        assert base.alloc_seconds == 0.0
        assert base.tee_memory_bytes == 0


class TestStaticConfigs:
    @pytest.mark.parametrize("config", sorted(TABLE6_STATIC))
    def test_total_time_within_15_percent(self, model, cost_model, config):
        paper_user, paper_kernel, paper_alloc, _ = TABLE6_STATIC[config]
        paper_total = paper_user + paper_kernel + paper_alloc
        measured = cost_model.cycle_cost(model, config).total_seconds
        assert measured == pytest.approx(paper_total, rel=0.15)

    @pytest.mark.parametrize("config", sorted(TABLE6_STATIC))
    def test_memory_within_10_percent(self, model, cost_model, config):
        paper_mib = TABLE6_STATIC[config][3]
        measured = cost_model.cycle_cost(model, config).tee_memory_mib
        assert measured == pytest.approx(paper_mib, rel=0.10)

    def test_l5_allocation_cliff(self, model, cost_model):
        """The paper's signature effect: L5's 76.8K params make allocation
        dominate (4.68 s vs 0.34 s for a conv layer)."""
        l5 = cost_model.cycle_cost(model, (5,)).alloc_seconds
        l3 = cost_model.cycle_cost(model, (3,)).alloc_seconds
        assert l5 > 10 * l3
        assert l5 == pytest.approx(4.68, rel=0.1)

    def test_allocation_additivity(self, model, cost_model):
        a = cost_model.cycle_cost(model, (2,)).alloc_seconds
        b = cost_model.cycle_cost(model, (5,)).alloc_seconds
        combined = cost_model.cycle_cost(model, (2, 5)).alloc_seconds
        assert combined == pytest.approx(a + b, rel=1e-9)

    def test_invalid_layer_rejected(self, model, cost_model):
        with pytest.raises(IndexError):
            cost_model.cycle_cost(model, (9,))


class TestDynamic:
    def test_weighted_average_matches_manual(self, model, cost_model):
        windows = [(1, 2), (2, 3), (3, 4), (4, 5)]
        probs = [0.2, 0.1, 0.6, 0.1]
        avg, per_window = cost_model.dynamic_cost(model, windows, probs)
        manual = sum(
            p * per_window[w].total_seconds for w, p in zip(windows, probs)
        )
        assert avg.total_seconds == pytest.approx(manual, rel=1e-9)

    def test_memory_is_worst_case(self, model, cost_model):
        windows = [(1, 2), (3, 4)]
        avg, per_window = cost_model.dynamic_cost(model, windows, [0.5, 0.5])
        assert avg.tee_memory_bytes == max(
            c.tee_memory_bytes for c in per_window.values()
        )

    def test_mw2_windows_match_table6(self, model, cost_model):
        for config, (pu, pk, pa, pm) in TABLE6_DYNAMIC_MW2.items():
            cost = cost_model.cycle_cost(model, config)
            assert cost.total_seconds == pytest.approx(pu + pk + pa, rel=0.2)
            assert cost.tee_memory_mib == pytest.approx(pm, rel=0.10)

    def test_probabilities_must_sum_to_one(self, model, cost_model):
        with pytest.raises(ValueError, match="sum to 1"):
            cost_model.dynamic_cost(model, [(1, 2), (2, 3)], [0.5, 0.1])

    def test_windows_probs_alignment(self, model, cost_model):
        with pytest.raises(ValueError, match="align"):
            cost_model.dynamic_cost(model, [(1, 2)], [0.5, 0.5])


@pytest.mark.parametrize("field", ["batch_size", "batches_per_cycle"])
@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_batch_counts_are_refused(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive, got {value}"):
        CostModel(**{field: value})


class TestMemoryEnforcement:
    def test_all_layers_exceed_4mib_at_large_batch(self, model):
        cm = CostModel(batch_size=128)
        with pytest.raises(SecureMemoryExhausted):
            cm.check_fits(model, (1, 2, 3, 4, 5))

    def test_paper_configs_fit(self, model, cost_model):
        for config in TABLE6_STATIC:
            cost_model.check_fits(model, config)  # no exception

    def test_overhead_percent(self, model, cost_model):
        base = cost_model.cycle_cost(model)
        l2 = cost_model.cycle_cost(model, (2,))
        paper = (1.672 + 0.652 + 0.34) / (2.191 + 0.021) - 1
        assert l2.overhead_percent(base) == pytest.approx(paper * 100, abs=6)


class TestCycleCost:
    def test_plus_and_scaled(self):
        a = CycleCost(1.0, 2.0, 3.0, 100)
        b = a.plus(a.scaled(0.5))
        assert b.user_seconds == pytest.approx(1.5)
        assert b.tee_memory_bytes == 150
