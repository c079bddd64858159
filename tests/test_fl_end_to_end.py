"""End-to-end FL integration tests (server + clients + protection)."""

import numpy as np
import pytest

from repro.core import DynamicPolicy, NoProtection, StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, ServerConfig, TrainingPlan
from repro.nn import lenet5


NUM_CLASSES = 5


def build_deployment(policy_factory, clients=2, cycles=2, seed=0, **plan_kwargs):
    dataset = synthetic_cifar(num_samples=96, num_classes=NUM_CLASSES, seed=seed)
    shards = dataset.shard(clients)
    global_model = lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5)
    plan = TrainingPlan(
        lr=plan_kwargs.pop("lr", 0.2),
        batch_size=plan_kwargs.pop("batch_size", 16),
        local_steps=plan_kwargs.pop("local_steps", 1),
    )
    server = FLServer(global_model, plan, policy_factory())
    fl_clients = [
        FLClient(
            f"client-{i}",
            shards[i],
            lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            policy=policy_factory(),
            seed=i,
        )
        for i in range(clients)
    ]
    return server, fl_clients, dataset


class TestUnprotectedFL:
    def test_training_improves_loss(self):
        server, clients, dataset = build_deployment(lambda: NoProtection(5))
        x = dataset.x[:64]
        y = dataset.one_hot_labels()[:64]
        before = server.model.loss(x, y).item()
        server.run(clients, cycles=3)
        assert server.model.loss(x, y).item() < before

    def test_history_records_each_cycle(self):
        server, clients, _ = build_deployment(lambda: NoProtection(5))
        server.run(clients, cycles=2)
        assert len(server.history) == 3  # initial + 2 cycles

    def test_channel_counts_traffic(self):
        server, clients, _ = build_deployment(lambda: NoProtection(5))
        server.run_cycle(clients)
        assert server.channel.downloads == len(clients)
        assert server.channel.uploads == len(clients)
        assert server.channel.downlink_bytes > 0


class TestProtectedFL:
    def test_static_protection_trains_identically(self):
        """Protection must not change the learning outcome at all."""
        srv_a, cl_a, dataset = build_deployment(lambda: NoProtection(5), seed=3)
        srv_b, cl_b, _ = build_deployment(lambda: StaticPolicy(5, [2, 5]), seed=3)
        srv_a.run(cl_a, cycles=2)
        srv_b.run(cl_b, cycles=2)
        for wa, wb in zip(srv_a.model.get_weights(), srv_b.model.get_weights()):
            for key in wa:
                np.testing.assert_allclose(wa[key], wb[key], rtol=1e-10)

    def test_client_leakage_excludes_protected(self):
        server, clients, _ = build_deployment(lambda: StaticPolicy(5, [2, 5]))
        server.run(clients, cycles=2)
        for client in clients:
            for leakage in client.leakage_log:
                grads = leakage.mean_gradients()
                assert grads[1] is None and grads[4] is None
                assert grads[0] is not None

    def test_protected_weights_never_plain_on_wire(self):
        server, clients, _ = build_deployment(lambda: StaticPolicy(5, [2]))
        updates = server.run_cycle(clients)
        for update in updates:
            assert update.plain_weights[1] == {}
            assert update.sealed_weights is not None

    def test_dynamic_policy_moves_window(self):
        factory = lambda: DynamicPolicy(5, 2, [0.25] * 4, seed=11)
        server, clients, _ = build_deployment(factory)
        server.run(clients, cycles=5)
        seen = {tuple(sorted(l.protected)) for l in clients[0].leakage_log}
        assert len(seen) > 1

    def test_server_and_client_agree_on_window(self):
        factory = lambda: DynamicPolicy(5, 2, [0.25] * 4, seed=11)
        server, clients, _ = build_deployment(factory)
        server.run(clients, cycles=4)
        for cycle, leakage in enumerate(clients[0].leakage_log):
            assert leakage.protected == server.policy.layers_for_cycle(cycle)


class TestHybridDeployment:
    def test_legacy_clients_train_unprotected(self):
        dataset = synthetic_cifar(num_samples=64, num_classes=NUM_CLASSES, seed=0)
        shards = dataset.shard(2)
        plan = TrainingPlan(lr=0.2, batch_size=16, local_steps=1)
        server = FLServer(
            lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            plan,
            StaticPolicy(5, [2]),
            config=ServerConfig(allow_legacy=True),
        )
        tee_client = FLClient(
            "tee", shards[0], lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            policy=StaticPolicy(5, [2]), seed=0,
        )
        legacy = FLClient(
            "legacy", shards[1], lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            has_tee=False, seed=1,
        )
        selection = server.select([tee_client, legacy])
        assert selection.admitted == ["tee"]
        assert selection.legacy == ["legacy"]
        updates = server.run_cycle([tee_client, legacy])
        # The legacy client's update is entirely plain.
        assert updates[1].sealed_weights is None
        # The TEE client's protected layer travelled sealed.
        assert updates[0].sealed_weights is not None


class TestSecureStorageIntegration:
    def test_client_data_round_trips_through_secure_storage(self):
        dataset = synthetic_cifar(num_samples=10, num_classes=3, seed=1)
        client = FLClient(
            "c", dataset, lenet5(num_classes=3, seed=0, scale=0.5), seed=0
        )
        loaded = client._load_data()
        np.testing.assert_array_equal(loaded.x, dataset.x)
        np.testing.assert_array_equal(loaded.y, dataset.y)

    def test_stored_blob_is_encrypted(self):
        dataset = synthetic_cifar(num_samples=10, num_classes=3, seed=1)
        client = FLClient(
            "c", dataset, lenet5(num_classes=3, seed=0, scale=0.5), seed=0
        )
        raw = client.storage.backend.get(client.storage.objects()[0])
        assert dataset.x.tobytes() not in raw
