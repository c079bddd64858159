"""Fast-mode runs of every benchmark driver (pipeline smoke + sanity)."""

from functools import partial

import pytest

from repro.bench import (
    DPIA_BEST_V_MW,
    dpia_experiment,
    dria_experiment,
    mia_experiment,
    v_mw_search,
)
from repro.core import DynamicPolicy, NoProtection, StaticPolicy
from repro.nn import lenet5

# The DPIA victim is LeNet-5; its policies are built over that layout.
LENET = lenet5().layout()
# Half-width DRIA and MIA victims keep these runs short.
HALF_LENET = partial(lenet5, scale=0.5)
HALF_MIA_TARGET = partial(lenet5, activation="relu", scale=0.5)


class TestDriaDriver:
    def test_rows_per_protected_set(self):
        rows = dria_experiment([(), (2,)], model_factory=HALF_LENET, fast=True)
        assert len(rows) == 2
        assert rows[0].metric == "ImageLoss"

    def test_protection_increases_image_loss(self):
        rows = dria_experiment([(), (1, 2)], model_factory=HALF_LENET, iterations=60)
        assert rows[1].score > rows[0].score


class TestMiaDriver:
    def test_fast_mode_produces_auc_rows(self):
        rows = mia_experiment(
            [(), (1, 2, 3, 4, 5)], model_factory=HALF_MIA_TARGET, fast=True
        )
        assert rows[0].metric == "AUC"
        assert 0.0 <= rows[0].score <= 1.0
        # Full protection is a coin flip by construction.
        assert rows[1].score == 0.5


class TestDpiaDriver:
    def test_policies_evaluated(self):
        rows = dpia_experiment(
            [
                ("none", NoProtection(LENET)),
                ("static L4", StaticPolicy(LENET, ["L4"])),
            ],
            fast=True,
        )
        assert [r.label for r in rows] == ["none", "static L4"]
        for row in rows:
            assert 0.0 <= row.score <= 1.0

    def test_dynamic_policy_row_includes_description(self):
        policy = DynamicPolicy(LENET, 2, DPIA_BEST_V_MW[2], seed=3)
        rows = dpia_experiment([("dyn", policy)], fast=True)
        assert "dynamic" in rows[0].extra["policy"]


class TestVMWSearch:
    def test_search_returns_valid_distribution(self):
        result = v_mw_search(size_mw=2, fast=True)
        assert len(result.best_v_mw) == 4
        assert sum(result.best_v_mw) == pytest.approx(1.0)
        assert result.best_score == min(s for _, s in result.scores)
