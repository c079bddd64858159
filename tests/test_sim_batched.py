"""Batched/compiled simulator execution: byte-identity with the eager path."""

from __future__ import annotations

import json

import pytest

from repro.api import simulate
from repro.cli import main
from repro.sim import SimConfig


def _report_json(**kwargs) -> str:
    return json.dumps(simulate(**kwargs), sort_keys=True)


class TestConfigValidation:
    def test_client_batch_requires_compile(self):
        with pytest.raises(ValueError, match="requires compile"):
            SimConfig(num_clients=4, rounds=1, client_batch=8)

    def test_execution_knobs_stay_out_of_the_report(self):
        """compile/client_batch are execution knobs, not deployment
        semantics: the report's config block must not mention them, so
        compiled and eager reports stay byte-comparable."""
        report = simulate(clients=8, rounds=1, seed=0, compile=True)
        assert "compile" not in report["config"]
        assert "client_batch" not in report["config"]
        assert report["config"]["num_clients"] == 8


class TestByteIdentity:
    CASES = [
        dict(clients=48, rounds=2, seed=11, cohort=16),
        dict(
            clients=48,
            rounds=2,
            seed=12,
            cohort=16,
            byzantine=0.25,
            attack="gauss_noise",
            rule="median",
        ),
        dict(
            clients=64,
            rounds=2,
            seed=13,
            cohort=24,
            byzantine=0.2,
            attack="scale",
            max_norm=0.5,
            clip=True,
            shards=2,
            dropout=0.1,
            straggler=0.1,
        ),
        # A three-round fleet: the quick end-to-end configuration the
        # graph-compile sweep once timed.
        dict(clients=256, rounds=3, seed=2, cohort=96),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_compiled_report_identical(self, case, batch):
        kwargs = self.CASES[case]
        eager = _report_json(**kwargs)
        compiled = _report_json(**kwargs, compile=True, client_batch=batch)
        assert eager == compiled

    def test_weights_sha_identical_with_metrics(self):
        kwargs = dict(clients=32, rounds=2, seed=3, cohort=12)
        eager = simulate(**kwargs, include_metrics=True)
        compiled = simulate(
            **kwargs, compile=True, client_batch=8, include_metrics=True
        )
        assert eager["weights_sha256"] == compiled["weights_sha256"]
        assert json.dumps(eager["metrics"], sort_keys=True) == json.dumps(
            compiled["metrics"], sort_keys=True
        )


class TestCli:
    ARGS = [
        "simulate",
        "--clients", "64",
        "--rounds", "2",
        "--seed", "5",
        "--dropout", "0.1",
        "--straggler", "0.1",
    ]

    def test_compiled_checkpoint_resume_matches_eager(self, tmp_path):
        """A compiled run killed after 2 of 3 rounds and resumed (still
        compiled) ends with the same bytes as an uninterrupted eager run."""
        full = tmp_path / "full.json"
        assert main([
            "simulate", "--clients", "64", "--rounds", "3", "--seed", "9",
            "--out", str(full),
        ]) == 0
        state = tmp_path / "state"
        partial = tmp_path / "partial.json"
        assert main([
            "simulate", "--clients", "64", "--rounds", "2", "--seed", "9",
            "--compile", "--client-batch", "16",
            "--state-dir", str(state), "--out", str(partial),
        ]) == 0
        resumed = tmp_path / "resumed.json"
        assert main([
            "simulate", "--clients", "64", "--rounds", "3", "--seed", "9",
            "--compile", "--client-batch", "16",
            "--state-dir", str(state), "--out", str(resumed),
        ]) == 0
        resumed_payload = json.loads(resumed.read_text())
        full_payload = json.loads(full.read_text())
        assert resumed_payload["resumed_from_round"] == 2
        assert (
            resumed_payload["weights_sha256"] == full_payload["weights_sha256"]
        )
        assert resumed_payload["rounds"] == full_payload["rounds"]

    def test_client_batch_without_compile_rejected(self, capsys):
        assert main([*self.ARGS, "--client-batch", "8"]) == 2
        assert "--client-batch requires --compile" in capsys.readouterr().err


class TestUpdateCacheLifecycle:
    def test_cache_cleared_between_rounds(self):
        from repro.obs import VirtualClock, fresh
        from repro.sim import FLSimulator

        cfg = SimConfig(
            num_clients=16,
            rounds=2,
            seed=1,
            cohort=8,
            compile=True,
            client_batch=4,
        )
        with fresh(clock=VirtualClock()) as ctx:
            sim = FLSimulator(cfg, clock=ctx.clock)
            sim.run()
            assert sim._update_cache == {}
