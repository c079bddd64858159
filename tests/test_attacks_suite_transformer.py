"""Attack suite over transformer workloads and block policies.

The suite's ``model_factory`` swaps the paper's LeNet-5 reference victim
for a zoo transformer; every attack (DRIA, MIA, DPIA) must run against
block-structured policies, and the ``repro.api.attack_suite`` facade and
``repro blocks`` CLI sweep must surface the same numbers JSON-safely.
"""

import json

import numpy as np
import pytest

import repro.api as api
from repro.attacks.suite import AttackSuite
from repro.cli import main
from repro.core.policy import NoProtection, PeltaPolicy, StaticPolicy
from repro.nn import lenet5, vit_tiny

LENET = lenet5().layout()


def _factory(num_classes, seed):
    return vit_tiny(num_classes=num_classes, seed=seed)


@pytest.fixture(scope="module")
def layout():
    return vit_tiny(num_classes=10, seed=1).layout()


class TestSuiteOnTransformer:
    def test_audit_runs_under_block_policies(self, layout):
        suite = AttackSuite(fast=True, model_factory=_factory)
        for policy in (
            NoProtection(layout),
            PeltaPolicy(layout),
            PeltaPolicy(layout, size_mw=1, v_mw=(0.5, 0.5), seed=2),
        ):
            report = suite.audit(policy)
            assert set(report.verdicts) == {"DRIA", "MIA"}
            for verdict in report.verdicts.values():
                assert np.isfinite(verdict.result.score) or verdict.result.score == float("inf")

    def test_depth_mismatch_rejected(self):
        suite = AttackSuite(fast=True, model_factory=_factory)
        with pytest.raises(ValueError, match="15"):
            suite.audit(NoProtection(LENET))

    def test_dpia_runs_on_transformer(self, layout):
        suite = AttackSuite(fast=True, model_factory=_factory)
        verdict = suite.audit_dpia(PeltaPolicy(layout), cycles=6)
        assert verdict.result.attack == "DPIA"
        assert 0.0 <= verdict.result.score <= 1.0


class TestFacade:
    def test_attack_suite_payload(self):
        payload = api.attack_suite("vit_tiny", fast=True)
        assert payload["model"] == "vit_tiny"
        assert set(payload["attacks"]) == {"DRIA", "MIA"}
        assert payload["attacks"]["MIA"]["protected"] == []
        json.dumps(payload)  # JSON-safe

    def test_policy_threads_through(self, layout):
        payload = api.attack_suite(
            "vit_tiny", StaticPolicy(layout, ["block2.softmax"]), fast=True
        )
        assert payload["attacks"]["MIA"]["protected"] == [10]
        assert "block2.softmax" in payload["policy"]

    def test_callable_factory_and_default_model(self):
        custom = api.attack_suite(_factory, fast=True)
        assert custom["model"] == "custom"
        reference = api.attack_suite(fast=True)
        assert reference["model"] == "lenet5"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            api.attack_suite("resnet50", fast=True)

    @pytest.mark.parametrize("name", ["mlp", "Sequential"])
    def test_a_name_that_builds_no_victim_is_refused(self, name):
        # mlp needs an input shape; Sequential is no zoo entry at all.
        with pytest.raises(ValueError, match="expected one of lenet5, alexnet, vit_tiny, gpt_tiny or"):
            api.attack_suite(name, fast=True)


class TestCliBlocks:
    def test_blocks_command_writes_json(self, tmp_path, capsys):
        out = tmp_path / "blocks.json"
        assert (
            main(
                [
                    "blocks",
                    "--fast",
                    "--model",
                    "vit_tiny",
                    "--mw-size",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["command"] == "blocks"
        assert payload["rows"][0]["label"] == "none"
        assert "Block shielding sweep" in capsys.readouterr().out
        rows = {row["label"]: row for row in payload["rows"]}
        assert set(rows) >= {"none", "static block1", "static block2", "MW=1"}
        # Cost rows ride along: protection costs secure memory.
        assert rows["static all-blocks"]["tee_memory_mib"] > rows["none"]["tee_memory_mib"]
        assert rows["none"]["tee_memory_mib"] == 0.0

    def test_simulate_accepts_model_and_policy(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--clients",
                    "6",
                    "--rounds",
                    "2",
                    "--model",
                    "vit_tiny",
                    "--policy",
                    "pelta-mw:1",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["rounds"] == 2

    def test_simulate_policy_spec_changes_cost(self, capsys):
        main(["simulate", "--clients", "4", "--rounds", "1", "--seed", "3"])
        base = json.loads(capsys.readouterr().out)
        main(
            [
                "simulate",
                "--clients", "4", "--rounds", "1", "--seed", "3",
                "--policy", "static:L2",
            ]
        )
        protected = json.loads(capsys.readouterr().out)
        assert protected["virtual_seconds"] != base["virtual_seconds"]
