"""Tests for the security-audit suite."""

import pytest

from repro.attacks import AttackSuite
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
