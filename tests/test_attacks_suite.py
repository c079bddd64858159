"""Tests for the security-audit suite."""

from functools import partial

import pytest

import repro.attacks.suite as suite_module
import repro.bench.experiments as experiments_module
from repro.attacks import AttackResult, AttackSuite, DataReconstructionAttack
from repro.attacks import mia as mia_module
from repro.bench import dria_experiment, mia_experiment
from repro.core import NoProtection, StaticPolicy
from repro.nn import alexnet, lenet5

# The audited reference workload's layout (LeNet-5: L1..L5).
LENET = lenet5().layout()


@pytest.fixture(scope="module")
def suite():
    return AttackSuite(fast=True)


@pytest.fixture(scope="module")
def unprotected_report(suite):
    return suite.audit(NoProtection(LENET))


@pytest.fixture(scope="module")
def full_report(suite):
    return suite.audit(StaticPolicy(LENET, ["L1", "L2", "L3", "L4", "L5"], max_slices=None))


class TestAudit:
    def test_unprotected_model_is_not_secure(self, unprotected_report):
        assert not unprotected_report.secure
        assert unprotected_report.verdicts["DRIA"].succeeded
        assert unprotected_report.verdicts["MIA"].succeeded

    def test_fully_protected_model_is_secure(self, full_report):
        assert full_report.secure
        assert not full_report.verdicts["DRIA"].succeeded
        assert not full_report.verdicts["MIA"].succeeded

    def test_all_protected_dria_score_is_inf(self, full_report):
        assert full_report.verdicts["DRIA"].result.score == float("inf")

    def test_report_format_readable(self, unprotected_report):
        text = unprotected_report.format()
        assert "DRIA" in text and "MIA" in text
        assert "NOT SECURE" in text

    def test_secure_report_says_secure(self, full_report):
        assert "overall: SECURE" in full_report.format()

    def test_criteria_recorded(self, unprotected_report):
        assert "ImageLoss" in unprotected_report.verdicts["DRIA"].criterion
        assert "AUC" in unprotected_report.verdicts["MIA"].criterion


class TestAuditDpia:
    def test_returns_verdict(self, suite):
        verdict = suite.audit_dpia(NoProtection(LENET), cycles=10)
        assert 0.0 <= verdict.result.score <= 1.0
        assert verdict.result.attack == "DPIA"

    def test_wrong_depth_rejected(self, suite):
        with pytest.raises(ValueError, match="5-layer"):
            suite.audit_dpia(NoProtection(alexnet(scale=1 / 16)))


class TestOnePipeline:
    """The suite scores policies on the paper experiments' workloads."""

    def test_lenet5_scores_are_the_experiment_rows_at_the_suite_budgets(self, suite):
        report = suite.audit(StaticPolicy(LENET, ["L2"]))
        (dria,) = dria_experiment([(2,)], iterations=40, num_classes=10, seed=0)
        (mia,) = mia_experiment(
            [(2,)],
            model_factory=partial(lenet5, activation="relu", scale=0.5),
            num_classes=10,
            samples_per_side=80,
            epochs=10,
            probes_per_class=40,
            attack_seeds=1,
            noise=0.5,
            seed=0,
        )
        assert report.verdicts["DRIA"].result.score == dria.score
        assert report.verdicts["MIA"].result.score == mia.score

    def test_the_mia_target_trains_and_its_probes_run_once_per_suite(self, monkeypatch):
        calls = {"train": 0, "blocks": 0}
        train, blocks = mia_module.train_target_model, mia_module.MembershipInferenceAttack.precompute_blocks

        def counted_train(*args, **kwargs):
            calls["train"] += 1
            return train(*args, **kwargs)

        def counted_blocks(*args, **kwargs):
            calls["blocks"] += 1
            return blocks(*args, **kwargs)

        # Wherever a caller looks the trainer up.
        for module in (suite_module, experiments_module):
            monkeypatch.setattr(module, "train_target_model", counted_train, raising=False)
        monkeypatch.setattr(
            mia_module.MembershipInferenceAttack, "precompute_blocks", counted_blocks
        )
        # DRIA is not what is counted: answer it at once.
        monkeypatch.setattr(
            DataReconstructionAttack,
            "run",
            lambda self, x, y, protected=(): AttackResult(
                "DRIA", frozenset(protected), 0.0, "ImageLoss"
            ),
        )
        suite = AttackSuite(fast=True)
        for layers in ([], ["L5"], ["L4", "L5"]):
            suite.audit(StaticPolicy(LENET, layers))
        assert calls == {"train": 1, "blocks": 1}
