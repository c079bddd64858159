"""FL stack resilience: retries, quorum, re-attestation eviction, traffic."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import NoProtection
from repro.data import synthetic_cifar
from repro.fl import (
    FLClient,
    FLServer,
    RetryPolicy,
    RoundConfig,
    ServerConfig,
    TrainingPlan,
    collect_with_retries,
)
from repro.nn import mlp

NUM_CLASSES = 4


def build_deployment(clients=3, seed=0, **round_kwargs):
    dataset = synthetic_cifar(
        num_samples=32 * clients, num_classes=NUM_CLASSES, shape=(3, 8, 8), seed=seed
    )
    shards = dataset.shard(clients)
    make_model = lambda: mlp(  # noqa: E731
        num_classes=NUM_CLASSES, input_shape=(3, 8, 8), hidden=(8,), seed=7
    )
    plan = TrainingPlan(lr=0.1, batch_size=8, local_steps=1)
    config = ServerConfig(round=RoundConfig(**round_kwargs))
    server = FLServer(make_model(), plan, NoProtection(2), config=config)
    fl_clients = [
        FLClient(f"client-{i}", shards[i], make_model(), seed=i)
        for i in range(clients)
    ]
    return server, fl_clients


class FlakyOnce(Exception):
    pass


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(quorum=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(quorum=1.5)

    def test_quorum_count(self):
        assert RetryPolicy(quorum=0.5).quorum_count(10) == 5
        assert RetryPolicy(quorum=0.5).quorum_count(9) == 5
        assert RetryPolicy(quorum=0.01).quorum_count(10) == 1

    def test_backoff_schedule_doubles(self):
        policy = RetryPolicy(max_retries=5, backoff_seconds=0.1)
        assert [policy.backoff_for(a) for a in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.4, 0.8
        ]
        with pytest.raises(ValueError):
            policy.backoff_for(0)

    def test_bounded_backoff_caps_the_exponent(self):
        # the serve transport retransmits forever but its waits plateau at
        # the max_retries+1 step of the shared schedule
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.5)
        assert policy.bounded_backoff_for(1) == policy.backoff_for(1)
        assert policy.bounded_backoff_for(3) == policy.backoff_for(3)
        assert policy.bounded_backoff_for(50) == policy.backoff_for(3)
        assert policy.bounded_backoff_for(0) == policy.backoff_for(1)


class TestCollectWithRetries:
    def test_transient_failures_recover(self):
        attempts = {}

        def flaky(item):
            attempts[item] = attempts.get(item, 0) + 1
            if item in ("b", "c") and attempts[item] == 1:
                raise FlakyOnce(item)
            return item.upper()

        with obs.fresh() as ctx:
            results = collect_with_retries(
                flaky,
                ["a", "b", "c"],
                RetryPolicy(max_retries=1),
            )
            assert ctx.registry.counter("fl.retry.attempts").total() == 2
            assert ctx.registry.counter("fl.retry.giveups").total() == 0
        assert results == [(0, "A"), (1, "B"), (2, "C")]

    def test_permanent_failures_dropped_after_budget(self):
        def broken(item):
            if item == "bad":
                raise FlakyOnce(item)
            return item

        with obs.fresh() as ctx:
            results = collect_with_retries(
                broken,
                ["ok", "bad", "fine"],
                RetryPolicy(max_retries=2),
                label_for=str,
            )
            assert ctx.registry.counter("fl.retry.attempts").total() == 2
            assert ctx.registry.counter("fl.retry.giveups").total() == 1
        assert results == [(0, "ok"), (2, "fine")]

    def test_results_in_item_order_regardless_of_recovery(self):
        calls = {"n": 0}

        def first_fails(item):
            calls["n"] += 1
            if item == 0 and calls["n"] == 1:
                raise FlakyOnce()
            return item * 10

        with obs.fresh():
            results = collect_with_retries(
                first_fails,
                [0, 1, 2],
                RetryPolicy(max_retries=1),
            )
        assert results == [(0, 0), (1, 10), (2, 20)]

    def test_failures_settle_instead_of_propagating(self):
        def sometimes(x):
            if x % 2:
                raise FlakyOnce(x)
            return x

        with obs.fresh():
            results = collect_with_retries(
                sometimes, [0, 1, 2], RetryPolicy(max_retries=0)
            )
        assert results == [(0, 0), (2, 2)]


class TestServerResilience:
    def test_failing_client_no_longer_aborts_the_round(self):
        server, clients = build_deployment(retry=RetryPolicy(max_retries=0))
        clients[1].run_cycle = _always_raise  # type: ignore[assignment]
        with obs.fresh() as ctx:
            updates = server.run_cycle(clients)
            assert ctx.registry.counter("fl.retry.giveups").total() == 1
        assert [u.client_id for u in updates] == ["client-0", "client-2"]
        assert server.cycle == 1

    def test_fail_fast_without_retry_policy(self):
        server, clients = build_deployment()  # retry=None
        clients[1].run_cycle = _always_raise  # type: ignore[assignment]
        with obs.fresh():
            with pytest.raises(FlakyOnce):
                server.run_cycle(clients)

    def test_below_quorum_degrades_and_keeps_weights(self):
        server, clients = build_deployment(
            retry=RetryPolicy(max_retries=0, quorum=0.75)
        )
        for client in clients[1:]:
            client.run_cycle = _always_raise  # type: ignore[assignment]
        before = server.model.get_weights()
        with obs.fresh() as ctx:
            updates = server.run_cycle(clients)
            assert ctx.registry.counter("fl.rounds.degraded").total() == 1
        assert len(updates) == 1  # the survivor still reported
        after = server.model.get_weights()
        for wa, wb in zip(before, after):
            for key in wa:
                np.testing.assert_array_equal(wa[key], wb[key])
        # history still advanced (with the carried-over weights)
        assert len(server.history) == 2

    def test_quorum_met_aggregates_normally(self):
        server, clients = build_deployment(
            retry=RetryPolicy(max_retries=0, quorum=0.5)
        )
        clients[2].run_cycle = _always_raise  # type: ignore[assignment]
        before = server.model.get_weights()
        with obs.fresh():
            server.run_cycle(clients)
        changed = any(
            not np.array_equal(wa[key], wb[key])
            for wa, wb in zip(before, server.model.get_weights())
            for key in wa
        )
        assert changed


class TestReattestation:
    def test_tampered_client_evicted_in_later_round(self):
        """Satellite fix: a client failing attestation after admission must
        be evicted and counted, not silently trained on."""
        server, clients = build_deployment()
        with obs.fresh() as ctx:
            server.run_cycle(clients)  # round 0: everyone healthy
            # the device key is swapped between rounds — quotes no longer
            # verify against the key the server enrolled
            clients[1].device._key = b"\x00" * 32
            updates = server.run_cycle(clients)
            evicted = ctx.registry.counter("fl.selection.evicted")
            assert evicted.total() == 1
            assert evicted.value(client="client-1") == 1
        assert [u.client_id for u in updates] == ["client-0", "client-2"]

    def test_all_evicted_raises(self):
        server, clients = build_deployment(clients=2)
        with obs.fresh():
            server.run_cycle(clients)
            for client in clients:
                client.device._key = b"\x00" * 32
            with pytest.raises(ValueError, match="re-attestation"):
                server.run_cycle(clients)

    def test_reattest_disabled_keeps_old_behaviour(self):
        server, clients = build_deployment(reattest=False)
        with obs.fresh() as ctx:
            server.run_cycle(clients)
            clients[1].device._key = b"\x00" * 32
            updates = server.run_cycle(clients)  # nobody re-challenged
            assert ctx.registry.counter("fl.selection.evicted").total() == 0
        assert len(updates) == 3

    def test_unknown_clients_enrolled_on_first_cycle(self):
        server, clients = build_deployment()
        with obs.fresh():
            updates = server.run_cycle(clients)  # no select()/register() first
        assert len(updates) == 3


class TestTrafficCounters:
    def test_bytes_counted_per_client(self):
        server, clients = build_deployment()
        with obs.fresh() as ctx:
            server.run_cycle(clients)
            down = ctx.registry.counter("fl.bytes.down")
            up = ctx.registry.counter("fl.bytes.up")
            assert down.total() == server.channel.downlink_bytes
            assert up.total() == server.channel.uplink_bytes
            for client in clients:
                assert down.value(client=client.client_id) > 0
                assert up.value(client=client.client_id) > 0

    def test_seeded_server_sampling_is_reproducible(self):
        server_a, clients_a = build_deployment(seed=3)
        server_b, clients_b = build_deployment(seed=3)
        picked_a = server_a.sample_participants(clients_a, fraction=0.67)
        picked_b = server_b.sample_participants(clients_b, fraction=0.67)
        assert [c.client_id for c in picked_a] == [
            c.client_id for c in picked_b
        ]


def _always_raise(*args, **kwargs):
    raise FlakyOnce("injected client failure")
