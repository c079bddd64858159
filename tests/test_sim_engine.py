"""The event-driven FL simulator: determinism, resilience, checkpoint/resume."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.nn import lenet5
from repro.nn.serialize import flatten_weights, unflatten_weights
from repro.obs import VirtualClock
from repro.sim import AttackKind, FLSimulator, FaultPlan, FaultRates, SimConfig
from repro.tee.storage import InMemoryBackend, SecureStorage

SSK = b"\x07" * 32


def make_sim(ctx, storage=None, rates=None, plan=None, **overrides):
    defaults = dict(num_clients=120, rounds=4, seed=13, cohort=12)
    defaults.update(overrides)
    config = SimConfig(**defaults)
    fault_plan = plan or FaultPlan(rates or FaultRates(), seed=config.seed)
    return FLSimulator(
        config, fault_plan=fault_plan, storage=storage, clock=ctx.clock
    )


def report_bytes(report):
    return json.dumps(report, sort_keys=True).encode()


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        rates = FaultRates(
            dropout=0.15, straggler=0.1, corrupt=0.05, pool_exhaust=0.03,
            attestation=0.02,
        )
        reports = []
        for _ in range(2):
            with obs.fresh(clock=VirtualClock()) as ctx:
                reports.append(make_sim(ctx, rates=rates).run())
        assert report_bytes(reports[0]) == report_bytes(reports[1])

    def test_different_seed_different_weights(self):
        digests = []
        for seed in (1, 2):
            with obs.fresh(clock=VirtualClock()) as ctx:
                digests.append(make_sim(ctx, seed=seed).run()["weights_sha256"])
        assert digests[0] != digests[1]

    def test_report_is_json_round_trippable(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            report = make_sim(ctx, rates=FaultRates(dropout=0.2)).run()
        assert json.loads(json.dumps(report)) == json.loads(
            json.dumps(report)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_clients=0, rounds=1)
        with pytest.raises(ValueError):
            SimConfig(num_clients=10, rounds=0)
        with pytest.raises(ValueError):
            SimConfig(num_clients=10, rounds=1, cohort=11)
        with pytest.raises(ValueError):
            SimConfig(num_clients=10, rounds=1, overprovision=0.5)
        with pytest.raises(ValueError):
            SimConfig(num_clients=10, rounds=1, quorum=0.0)


class TestResilience:
    def test_heavy_faults_still_aggregate_every_round(self):
        """30% dropout + stragglers: over-provisioning absorbs the losses."""
        rates = FaultRates(dropout=0.3, straggler=0.15)
        with obs.fresh(clock=VirtualClock()) as ctx:
            sim = make_sim(
                ctx, rates=rates, num_clients=300, rounds=5, cohort=20,
                overprovision=1.6,
            )
            report = sim.run()
            registry = ctx.registry
        totals = report["totals"]
        assert totals["degraded"] == 0
        assert totals["dropouts"] > 0 and totals["stragglers"] > 0
        # over-provisioning was actually exercised
        assert totals["asked"] > 5 * 20
        for outcome in report["rounds"]:
            assert not outcome["degraded"]
            assert len(outcome["collected"]) >= sim.config.quorum_count
        # metrics record the exact deterministic fault counts
        assert registry.counter("sim.dropouts").total() == totals["dropouts"]
        assert registry.counter("sim.stragglers").total() == totals["stragglers"]
        assert registry.counter("sim.rounds").total() == 5

    def test_exact_fault_counts_with_pinned_plan(self):
        """Explicit injections give exactly known metric totals."""
        with obs.fresh(clock=VirtualClock()) as ctx:
            probe = make_sim(ctx)
            cohort = probe._select_cohort(0)
        plan = FaultPlan(seed=13)
        plan.inject(0, cohort[0], "drop")
        plan.inject(0, cohort[1], "drop")
        plan.inject(0, cohort[2], "fail_attestation")
        plan.inject(0, cohort[3], "corrupt")
        plan.inject(0, cohort[4], "exhaust_pool")
        with obs.fresh(clock=VirtualClock()) as ctx:
            sim = make_sim(ctx, plan=plan, rounds=1)
            report = sim.run()
            registry = ctx.registry
        assert registry.counter("sim.dropouts").total() == 2
        assert registry.counter("sim.attestation_failures").total() == 1
        assert registry.counter("sim.corruptions").total() == 1
        assert registry.counter("sim.pool_exhaustions").total() == 1
        # both transient faults retried (and, with default budget, recovered)
        assert registry.counter("fl.retry.attempts").total() == 2
        assert registry.counter("fl.retry.giveups").total() == 0
        totals = report["totals"]
        assert totals["dropouts"] == 2 and totals["evicted"] == 1
        assert totals["retries"] == 2 and totals["giveups"] == 0

    def test_transient_faults_recover_via_retry(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            probe = make_sim(ctx, overprovision=1.0)
            cohort = probe._select_cohort(0)
        plan = FaultPlan(seed=13)
        for member in cohort[:3]:
            plan.inject(0, member, "corrupt")
        with obs.fresh(clock=VirtualClock()) as ctx:
            # overprovision=1.0: every cohort member is needed, so the
            # corrupted ones *must* recover via retry for the round to fill.
            report = make_sim(
                ctx, plan=plan, rounds=1, overprovision=1.0
            ).run()
        outcome = report["rounds"][0]
        assert outcome["corrupted"] == 3
        assert outcome["retries"] == 3
        # the retried members still delivered: the round filled its cohort
        assert len(outcome["collected"]) == 12
        assert not outcome["degraded"]

    def test_total_blackout_degrades_gracefully(self):
        """A round below quorum reuses the previous global model."""
        with obs.fresh(clock=VirtualClock()) as ctx:
            sim = make_sim(ctx, rounds=2)
            before = sim.run()  # baseline run, no faults
        plan = FaultPlan(FaultRates(dropout=1.0), seed=13).inject(1, -1, None)
        with obs.fresh(clock=VirtualClock()) as ctx:
            sim = make_sim(ctx, plan=plan, rounds=1)
            healthy_digest_before = sim.weights_digest()
            report = sim.run()
            registry = ctx.registry
            degraded_digest = sim.weights_digest()
        outcome = report["rounds"][0]
        assert outcome["degraded"]
        assert outcome["collected"] == []
        # weights unchanged by the degraded round
        assert degraded_digest == healthy_digest_before
        assert registry.counter("sim.rounds.degraded").total() == 1
        assert before["weights_sha256"] != degraded_digest

    def test_straggle_misses_deadline(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            probe = make_sim(ctx)
            cohort = probe._select_cohort(0)
        # Straggle the whole cohort hard enough that nobody can make the
        # deadline: the round must settle exactly at the deadline, degraded.
        plan = FaultPlan(seed=13)
        for member in cohort:
            plan.inject(0, member, "straggle")
        with obs.fresh(clock=VirtualClock()) as ctx:
            report = make_sim(
                ctx, plan=plan, rounds=1, straggler_factor=1000.0
            ).run()
        outcome = report["rounds"][0]
        assert outcome["stragglers"] == outcome["asked"]
        assert outcome["degraded"]
        assert outcome["virtual_seconds"] == pytest.approx(5.0)  # deadline

    def test_virtual_time_advances_with_rounds(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            report = make_sim(ctx).run()
        assert report["virtual_seconds"] > 0
        starts = [o["started_at"] for o in report["rounds"]]
        assert starts == sorted(starts)
        for outcome in report["rounds"]:
            assert outcome["aggregated_at"] > outcome["started_at"]

    def test_rounds_emit_spans(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            make_sim(ctx, rounds=3).run()
            spans = [
                s
                for s in ctx.tracer.export()["spans"]
                if s["name"] == "sim.round"
            ]
        assert len(spans) == 3
        assert [s["attributes"]["cycle"] for s in spans] == [0, 1, 2]


class TestCheckpointResume:
    def test_kill_after_round_2_resume_bitwise_identical(self):
        """The acceptance-criterion scenario: uninterrupted vs killed+resumed."""
        rates = FaultRates(dropout=0.2, straggler=0.1, corrupt=0.05)
        with obs.fresh(clock=VirtualClock()) as ctx:
            uninterrupted = make_sim(ctx, rates=rates, rounds=6).run()

        storage = SecureStorage(InMemoryBackend(), ssk=SSK)
        with obs.fresh(clock=VirtualClock()) as ctx:
            killed = make_sim(ctx, rates=rates, rounds=6, storage=storage)
            killed.step_round()
            killed.step_round()
            # the coordinator dies here; `killed` is abandoned
        with obs.fresh(clock=VirtualClock()) as ctx:
            resumed_sim = make_sim(ctx, rates=rates, rounds=6, storage=storage)
            assert resumed_sim.resumed_from == 2
            resumed = resumed_sim.run()
            assert ctx.registry.counter("sim.resumes").total() == 1

        assert resumed["weights_sha256"] == uninterrupted["weights_sha256"]
        assert resumed["rounds"] == uninterrupted["rounds"]
        assert resumed["virtual_seconds"] == uninterrupted["virtual_seconds"]

    def test_resume_at_every_cut_point(self):
        with obs.fresh(clock=VirtualClock()) as ctx:
            reference = make_sim(ctx, rounds=4).run()
        for cut in range(1, 4):
            storage = SecureStorage(InMemoryBackend(), ssk=SSK)
            with obs.fresh(clock=VirtualClock()) as ctx:
                partial = make_sim(ctx, rounds=4, storage=storage)
                for _ in range(cut):
                    partial.step_round()
            with obs.fresh(clock=VirtualClock()) as ctx:
                resumed = make_sim(ctx, rounds=4, storage=storage).run()
            assert resumed["weights_sha256"] == reference["weights_sha256"], cut
            assert resumed["rounds"] == reference["rounds"], cut

    def test_completed_run_resumes_as_noop(self):
        storage = SecureStorage(InMemoryBackend(), ssk=SSK)
        with obs.fresh(clock=VirtualClock()) as ctx:
            first = make_sim(ctx, rounds=3, storage=storage).run()
        with obs.fresh(clock=VirtualClock()) as ctx:
            again_sim = make_sim(ctx, rounds=3, storage=storage)
            assert again_sim.resumed_from == 3
            again = again_sim.run()
        assert again["weights_sha256"] == first["weights_sha256"]
        assert again["rounds"] == first["rounds"]

    def test_checkpoints_counted(self):
        storage = SecureStorage(InMemoryBackend(), ssk=SSK)
        with obs.fresh(clock=VirtualClock()) as ctx:
            make_sim(ctx, rounds=3, storage=storage).run()
            assert ctx.registry.counter("sim.checkpoints").total() == 3


class TestScale:
    def test_thousand_clients_is_fast_and_exact(self):
        reports = []
        for _ in range(2):
            with obs.fresh(clock=VirtualClock()) as ctx:
                sim = FLSimulator(
                    SimConfig(num_clients=1000, rounds=3, seed=7, cohort=50),
                    fault_plan=FaultPlan(
                        FaultRates(dropout=0.2, straggler=0.05), seed=7
                    ),
                    clock=ctx.clock,
                )
                reports.append(sim.run())
        assert report_bytes(reports[0]) == report_bytes(reports[1])
        assert reports[0]["totals"]["rounds"] == 3

    def test_wire_bytes_drive_transfer_time(self):
        """A bigger model makes simulated rounds take longer."""
        from repro.nn.zoo import mlp

        times = []
        for hidden in ((4,), (64, 64)):
            with obs.fresh(clock=VirtualClock()) as ctx:
                model = mlp(
                    num_classes=4, input_shape=(6,), hidden=hidden, seed=0
                )
                sim = FLSimulator(
                    SimConfig(num_clients=40, rounds=2, seed=5, cohort=8),
                    model=model,
                    clock=ctx.clock,
                )
                times.append(sim.run()["virtual_seconds"])
        assert times[1] > times[0]


def structured_update(sim, key, client, weights):
    """The per-layer path the engine ran before updates went flat: the oracle."""
    cfg, teacher = sim.config, sim.teacher_weights
    rng = np.random.default_rng((cfg.seed, 13, key, client))
    delta = [
        {
            k: cfg.drift * (teacher[i][k] - w) + cfg.update_scale * rng.standard_normal(w.shape)
            for k, w in layer.items()
        }
        for i, layer in enumerate(weights)
    ]
    delta = unflatten_weights(
        sim.fault_plan.attack_delta(key, client, flatten_weights(delta)), weights
    )
    return flatten_weights([{k: w + d[k] for k, w in l.items()} for l, d in zip(weights, delta)])


class TestFlatUpdateOracle:
    CLIENTS = {0: None, **{i + 1: kind for i, kind in enumerate(AttackKind)}}

    def build(self, ctx, model_name, **overrides):
        model = (
            lenet5(num_classes=10, input_shape=(3, 16, 16), seed=3)
            if model_name == "lenet5"
            else None
        )
        plan = FaultPlan(seed=13)
        for client, kind in self.CLIENTS.items():
            plan.inject_attack(client, kind)
        config = SimConfig(num_clients=20, rounds=1, seed=13, cohort=8, **overrides)
        return FLSimulator(config, model=model, fault_plan=plan, clock=ctx.clock)

    @pytest.mark.parametrize("model_name", ["mlp", "lenet5"])
    def test_eager_and_compiled_equal_the_structured_path(self, model_name):
        with obs.fresh(clock=VirtualClock()) as ctx:
            eager = self.build(ctx, model_name)
            compiled = self.build(ctx, model_name, compile=True, client_batch=4)
            weights = eager.model.get_weights()
            # `weight` is stored before `bias`: items() order is not
            # flatten_weights' sorted-key order, so the permutation matters.
            assert [list(layer) for layer in weights if layer] != [
                sorted(layer) for layer in weights if layer
            ]
            base_flat = flatten_weights(weights)
            compiled._precompute_updates(5, sorted(self.CLIENTS), base_flat)
            assert set(compiled._update_cache) == {(5, c) for c in self.CLIENTS}
            for client, kind in self.CLIENTS.items():
                expected = structured_update(eager, 5, client, weights).tobytes()
                assert eager._make_update(5, client, base_flat).tobytes() == expected, kind
                assert compiled._make_update(5, client, base_flat).tobytes() == expected, kind
            honest = structured_update(eager, 5, 0, weights)
            for client in list(self.CLIENTS)[1:]:
                assert structured_update(eager, 5, client, weights).tobytes() != honest.tobytes()


class TestTallyLedger:
    """Every per-round tally equals its registry counter — one table, ==."""

    RATES = FaultRates(
        dropout=0.08, straggler=0.05, corrupt=0.1, pool_exhaust=0.05, attestation=0.03
    )
    COMMON = dict(
        num_clients=60, cohort=24, rounds=10, seed=4, byzantine=0.3,
        attack="scale", max_norm=3.0, deadline_seconds=0.5, straggler_factor=3.0,
    )

    def check(self, plan_kwargs, **settings):
        from repro.sim.engine import _COUNT_KEYS, _TALLY_METRICS

        config = SimConfig(**{**self.COMMON, **settings})
        rates = dataclasses.replace(self.RATES, **plan_kwargs)
        plan = FaultPlan(rates, seed=config.seed, attackers=config)
        with obs.fresh(clock=VirtualClock()) as ctx:
            report = FLSimulator(config, fault_plan=plan, clock=ctx.clock).run()
            counters = ctx.registry.snapshot()["counters"]
        assert set(_TALLY_METRICS) | {"admission_clipped"} == set(_COUNT_KEYS)
        fired = 0
        for key, (metric, _) in _TALLY_METRICS.items():
            tally = sum(outcome[key] for outcome in report["rounds"])
            assert tally == report["totals"][key]
            if tally:
                fired += 1
                assert sum(counters[metric].values()) == tally, key
            else:
                assert metric not in counters, key  # never fired: no series
        return fired, report["totals"]

    def test_sync_tallies_equal_registry_counters(self):
        fired, totals = self.check(
            dict(shard_down=0.5), shards=2, max_retries=1, deadline_seconds=1.2
        )
        assert fired == 11, totals

    def test_async_tallies_equal_registry_counters(self):
        fired, totals = self.check({}, async_mode=True, buffer_size=12, shards=2)
        assert totals["shard_down"] == totals["giveups"] == 0 and fired == 9, totals


class TestAsyncShardDown:
    def test_constructor_rejects_async_with_shard_down(self):
        config = SimConfig(num_clients=40, rounds=2, shards=4, async_mode=True)
        with obs.fresh(clock=VirtualClock()) as ctx:
            with pytest.raises(ValueError, match="shard_down.*async_mode"):
                FLSimulator(
                    config,
                    fault_plan=FaultPlan(FaultRates(shard_down=0.2), seed=0),
                    clock=ctx.clock,
                )

    def test_api_rejects_async_with_shard_down(self):
        from repro.api import simulate

        with pytest.raises(ValueError, match="shard_down.*async_mode"):
            simulate(clients=40, rounds=2, shards=4, shard_down=0.9, async_mode=True)

    def test_cli_exits_nonzero_naming_both_settings(self, spawn_repro):
        result = spawn_repro(
            "simulate", "--clients", "40", "--async", "--shards", "4",
            "--shard-down", "0.9", check=False,
        )
        assert result.returncode != 0
        assert "--shard-down" in result.stderr and "--async" in result.stderr
