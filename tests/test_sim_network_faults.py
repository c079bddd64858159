"""Network model sampling and the deterministic fault plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import FaultKind, FaultPlan, FaultRates, NetworkModel


class TestNetworkModel:
    def test_sample_is_deterministic_in_the_seed(self):
        a = NetworkModel.sample(50, np.random.default_rng(3))
        b = NetworkModel.sample(50, np.random.default_rng(3))
        assert np.array_equal(a.latency_seconds, b.latency_seconds)
        assert np.array_equal(
            a.bandwidth_bytes_per_second, b.bandwidth_bytes_per_second
        )

    def test_transfer_time_scales_with_payload(self):
        model = NetworkModel.sample(10, np.random.default_rng(0))
        small = model.transfer_seconds(3, 1_000)
        large = model.transfer_seconds(3, 1_000_000)
        assert large > small
        # latency-only floor: an empty message still takes the propagation delay
        assert model.transfer_seconds(3, 0) == pytest.approx(
            float(model.latency_seconds[3])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            NetworkModel(-np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            NetworkModel(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            NetworkModel.sample(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            NetworkModel.sample(4, np.random.default_rng(0)).transfer_seconds(0, -1)


class TestFaultRates:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultRates(dropout=-0.1)
        with pytest.raises(ValueError):
            FaultRates(dropout=1.5)
        with pytest.raises(ValueError):
            FaultRates(dropout=0.6, straggler=0.6)

    def test_thresholds_are_cumulative_and_ordered(self):
        rates = FaultRates(dropout=0.1, corrupt=0.2)
        edges = rates.thresholds()
        assert edges == (
            (pytest.approx(0.1), FaultKind.DROP),
            (pytest.approx(0.3), FaultKind.CORRUPT),
        )

    def test_transient_taxonomy(self):
        assert FaultKind.CORRUPT.transient
        assert FaultKind.EXHAUST_POOL.transient
        assert not FaultKind.DROP.transient
        assert not FaultKind.STRAGGLE.transient
        assert not FaultKind.FAIL_ATTESTATION.transient


class TestFaultPlan:
    def test_no_rates_means_no_faults(self):
        plan = FaultPlan(seed=1)
        assert all(
            plan.fault_for(r, c) is None for r in range(5) for c in range(20)
        )

    def test_same_seed_same_faults_any_query_order(self):
        rates = FaultRates(dropout=0.3, straggler=0.2, attestation=0.1)
        a = FaultPlan(rates, seed=11)
        b = FaultPlan(rates, seed=11)
        cells = [(r, c) for r in range(4) for c in range(30)]
        forward = {cell: a.fault_for(*cell) for cell in cells}
        backward = {cell: b.fault_for(*cell) for cell in reversed(cells)}
        assert forward == backward
        assert any(v is not None for v in forward.values())

    def test_different_seeds_differ(self):
        rates = FaultRates(dropout=0.5)
        a = FaultPlan(rates, seed=1)
        b = FaultPlan(rates, seed=2)
        cells = [(r, c) for r in range(4) for c in range(50)]
        assert [a.fault_for(*cell) for cell in cells] != [
            b.fault_for(*cell) for cell in cells
        ]

    def test_rates_approximately_realised(self):
        plan = FaultPlan(FaultRates(dropout=0.25), seed=0)
        hits = sum(
            plan.fault_for(0, c) is FaultKind.DROP for c in range(2000)
        )
        assert 0.20 < hits / 2000 < 0.30

    def test_explicit_injection_overrides_sampling(self):
        plan = FaultPlan(FaultRates(dropout=1.0), seed=0)
        plan.inject(2, 7, "corrupt")
        plan.inject(2, 8, None)  # force health
        assert plan.fault_for(2, 7) is FaultKind.CORRUPT
        assert plan.fault_for(2, 8) is None
        assert plan.fault_for(2, 9) is FaultKind.DROP

    def test_describe_mentions_active_rates(self):
        plan = FaultPlan(FaultRates(dropout=0.3), seed=9).inject(0, 0, "drop")
        text = plan.describe()
        assert "dropout=0.3" in text and "1 pinned" in text
