"""Tests for the protection-policy planner."""

import pytest

from repro.core.planner import KNOWN_ATTACKS, PolicyPlanner
from repro.nn import alexnet, lenet5, mlp
from repro.tee import CostModel, SecureMemoryExhausted


@pytest.fixture(scope="module")
def planner():
    return PolicyPlanner(lenet5(), CostModel(batch_size=32))


class TestStructuralAnalysis:
    def test_conv_head(self, planner):
        assert planner.conv_head_layers(2) == [1, 2]

    def test_dense_tail(self, planner):
        assert planner.dense_tail_layers(1) == [5]

    def test_alexnet_tail(self):
        planner = PolicyPlanner(alexnet())
        assert planner.dense_tail_layers(3) == [6, 7, 8]

    def test_mlp_has_no_conv(self):
        planner = PolicyPlanner(mlp(3, (4,), hidden=(5,)))
        with pytest.raises(ValueError, match="convolutional"):
            planner.conv_head_layers()


class TestRecommendations:
    def test_dpia_on_other_depths_recommends_search(self):
        deeper = mlp(4, (10,), hidden=(16, 16, 16, 16, 16))  # 6 layers
        planner = PolicyPlanner(deeper, CostModel(batch_size=8))
        rec = planner.recommend(["dpia"])
        assert rec.search_recommended
        assert len(rec.policy.v_mw) == 5  # uniform fallback over 5 positions

    def test_unknown_attack_rejected(self, planner):
        with pytest.raises(ValueError, match="unknown attacks"):
            planner.recommend(["sidechannel"])

    def test_empty_attack_list_rejected(self, planner):
        with pytest.raises(ValueError, match="no attacks"):
            planner.recommend([])

    def test_budget_enforced(self):
        tight = PolicyPlanner(lenet5(), CostModel(batch_size=256))
        with pytest.raises(SecureMemoryExhausted):
            tight.recommend(["dria"])

    def test_format_mentions_cost(self, planner):
        text = planner.recommend(["mia"]).format()
        assert "MiB" in text and "s/cycle" in text

    def test_known_attacks_constant(self):
        assert set(KNOWN_ATTACKS) == {"dria", "mia", "dpia"}
