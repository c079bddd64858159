"""FL stack resilience: the fail-fast cycle, re-attestation eviction, traffic."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import synthetic_cifar
from repro.fl import (
    FLClient,
    FLServer,
    RetryPolicy,
    RoundConfig,
    ServerConfig,
    TrainingPlan,
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
    server = FLServer(make_model(), plan, config=config)
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


class TestServerResilience:
    def test_fail_fast_without_retry_policy(self):
        server, clients = build_deployment()
        clients[1].run_cycle = _always_raise  # type: ignore[assignment]
        before = server.model.get_weights()
        with obs.fresh():
            with pytest.raises(FlakyOnce):
                server.run_cycle(clients)
        assert server.cycle == 0
        for wa, wb in zip(before, server.model.get_weights()):
            for key in wa:
                np.testing.assert_array_equal(wa[key], wb[key])


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


def _always_raise(*args, **kwargs):
    raise FlakyOnce("injected client failure")
