"""Simulator-level tests for sharded hierarchical aggregation."""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.obs import VirtualClock, fresh
from repro.sim import FLSimulator, FaultPlan, FaultRates, SimConfig


def run_sim(**kwargs):
    rates = replace(
        kwargs.pop("rates", None) or FaultRates(),
        shard_down=kwargs.pop("shard_down", 0.0),
    )
    plan = kwargs.pop("fault_plan", None) or FaultPlan(rates, seed=kwargs.get("seed", 0))
    config = SimConfig(**kwargs)
    with fresh(clock=VirtualClock()) as ctx:
        simulator = FLSimulator(config, fault_plan=plan, clock=ctx.clock)
        report = simulator.run()
        report["metrics"] = ctx.registry.snapshot()
    return report


class TestShardedEqualsFlat:
    @pytest.mark.parametrize("shards", [2, 7, 64])
    def test_weights_sha_independent_of_shard_count(self, shards):
        base = dict(
            num_clients=150,
            rounds=3,
            seed=7,
            cohort=32,
            rates=FaultRates(dropout=0.1, straggler=0.05),
        )
        flat = run_sim(**base)
        sharded = run_sim(shards=shards, **base)
        assert sharded["weights_sha256"] == flat["weights_sha256"]

    def test_report_is_deterministic(self):
        a = run_sim(num_clients=80, rounds=2, seed=3, shards=8)
        b = run_sim(num_clients=80, rounds=2, seed=3, shards=8)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_shard_traffic_charged(self):
        report = run_sim(num_clients=80, rounds=2, seed=3, shards=8)
        assert report["totals"]["shard_bytes"] > 0
        assert report["rounds"][0]["shards"] == 8
        # Shard->root transfers take virtual time: the sharded run cannot
        # finish earlier than the flat one at the same seed.
        flat = run_sim(num_clients=80, rounds=2, seed=3)
        assert flat["totals"]["shard_bytes"] == 0
        assert report["virtual_seconds"] >= flat["virtual_seconds"]


class TestBoundedAggregatorMemory:
    def test_peak_bytes_independent_of_fleet_size(self):
        peaks = [
            run_sim(num_clients=n, rounds=1, seed=2, cohort=min(n, 64), shards=4)[
                "aggregator_peak_bytes"
            ]
            for n in (64, 512, 2048)
        ]
        assert peaks[0] == peaks[1] == peaks[2]
        assert peaks[0] > 0


class TestShardFaults:
    def test_dead_shard_feeds_retry_machinery(self):
        healthy = run_sim(num_clients=100, rounds=3, seed=5, shards=8)
        faulty = run_sim(
            num_clients=100, rounds=3, seed=5, shards=8, shard_down=0.4
        )
        assert faulty["totals"]["shard_down"] > 0
        assert faulty["totals"]["retries"] > healthy["totals"]["retries"]
        counters = faulty["metrics"]["counters"]
        assert sum(counters["sim.shard.down"].values()) > 0
        assert sum(counters["sim.shard.losses"].values()) > 0

    def test_rerouted_retries_preserve_round_progress(self):
        # Pin one shard dead: its clients' first uploads are lost, but the
        # retry re-routes to a surviving shard and the round still collects.
        plan = FaultPlan(seed=5).inject_shard(0, 0)
        report = run_sim(
            num_clients=40, rounds=1, seed=5, cohort=16, shards=4,
            fault_plan=plan,
        )
        (outcome,) = report["rounds"]
        assert outcome["dead_shards"] == [0]
        assert outcome["shard_down"] > 0
        assert not outcome["degraded"]
        assert len(outcome["collected"]) >= 8

    def test_all_shards_dead_degrades_round(self):
        plan = FaultPlan(seed=1)
        for shard in range(4):
            plan.inject_shard(0, shard)
        report = run_sim(
            num_clients=30, rounds=1, seed=1, cohort=8, shards=4,
            fault_plan=plan,
        )
        (outcome,) = report["rounds"]
        assert outcome["degraded"]
        assert len(outcome["collected"]) == 0

    def test_shard_draws_do_not_reshuffle_client_faults(self):
        base = dict(
            num_clients=60, rounds=2, seed=9, shards=4,
            rates=FaultRates(dropout=0.2),
        )
        quiet = run_sim(**base)
        noisy = run_sim(shard_down=0.3, **base)
        for a, b in zip(quiet["rounds"], noisy["rounds"]):
            assert a["dropouts"] == b["dropouts"]


class TestCliSharded:
    def run_cli(self, tmp_path, name, *extra):
        out = tmp_path / name
        argv = [
            "simulate", "--clients", "90", "--rounds", "2", "--seed", "6",
            "--out", str(out), *extra,
        ]
        assert main(argv) == 0
        return out.read_bytes()

    def test_shards_flag_byte_reproducible(self, tmp_path):
        first = self.run_cli(tmp_path, "a.json", "--shards", "16")
        second = self.run_cli(tmp_path, "b.json", "--shards", "16")
        assert first == second

    def test_shards_flag_preserves_weights(self, tmp_path):
        flat = json.loads(self.run_cli(tmp_path, "flat.json"))
        sharded = json.loads(
            self.run_cli(tmp_path, "sharded.json", "--shards", "16")
        )
        assert sharded["weights_sha256"] == flat["weights_sha256"]

    def test_shard_down_flag(self, tmp_path):
        payload = json.loads(
            self.run_cli(
                tmp_path, "down.json", "--shards", "8", "--shard-down", "0.5"
            )
        )
        assert payload["totals"]["shard_down"] > 0
