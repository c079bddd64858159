"""End-to-end FL integration tests (server + clients + protection)."""

import numpy as np
import pytest

from repro.core import DynamicPolicy, NoProtection, StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, ServerConfig, TrainingPlan
from repro.nn import lenet5
from repro.tee import IntegrityError


NUM_CLASSES = 5
LENET = lenet5().layout()


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


def run_leakage(server, clients, cycles):
    """Run ``cycles`` cycles; returns each client's per-cycle leakage records."""
    logs = [[] for _ in clients]
    for _ in range(cycles):
        server.run_cycle(clients)
        for log, client in zip(logs, clients):
            log.append(client.last_leakage)
    return logs


class TestUnprotectedFL:
    def test_training_improves_loss(self):
        server, clients, dataset = build_deployment(lambda: NoProtection(LENET))
        x = dataset.x[:64]
        y = dataset.one_hot_labels()[:64]
        before = server.model.loss(x, y).item()
        for _ in range(3):
            server.run_cycle(clients)
        assert server.model.loss(x, y).item() < before

    def test_channel_counts_traffic(self):
        server, clients, _ = build_deployment(lambda: NoProtection(LENET))
        server.run_cycle(clients)
        assert server.channel.downloads == len(clients)
        assert server.channel.uploads == len(clients)
        assert server.channel.downlink_bytes > 0


class TestProtectedFL:
    def test_static_protection_trains_identically(self):
        """Protection must not change the learning outcome at all."""
        srv_a, cl_a, dataset = build_deployment(lambda: NoProtection(LENET), seed=3)
        srv_b, cl_b, _ = build_deployment(lambda: StaticPolicy(LENET, ["L2", "L5"]), seed=3)
        for _ in range(2):
            srv_a.run_cycle(cl_a)
            srv_b.run_cycle(cl_b)
        for wa, wb in zip(srv_a.model.get_weights(), srv_b.model.get_weights()):
            for key in wa:
                np.testing.assert_allclose(wa[key], wb[key], rtol=1e-10)

    def test_client_leakage_excludes_protected(self):
        server, clients, _ = build_deployment(lambda: StaticPolicy(LENET, ["L2", "L5"]))
        for log in run_leakage(server, clients, cycles=2):
            for leakage in log:
                grads = leakage.mean_gradients()
                assert grads[1] is None and grads[4] is None
                assert grads[0] is not None

    def test_protected_weights_never_plain_on_wire(self):
        server, clients, _ = build_deployment(lambda: StaticPolicy(LENET, ["L2"]))
        updates = server.run_cycle(clients)
        for update in updates:
            assert update.plain_weights[1] == {}
            assert update.sealed_weights is not None

    def test_dynamic_policy_moves_window(self):
        factory = lambda: DynamicPolicy(LENET, 2, [0.25] * 4, seed=11)
        server, clients, _ = build_deployment(factory)
        log = run_leakage(server, clients, cycles=5)[0]
        seen = {tuple(sorted(l.protected)) for l in log}
        assert len(seen) > 1

    def test_server_and_client_agree_on_window(self):
        factory = lambda: DynamicPolicy(LENET, 2, [0.25] * 4, seed=11)
        server, clients, _ = build_deployment(factory)
        log = run_leakage(server, clients, cycles=4)[0]
        for cycle, leakage in enumerate(log):
            assert leakage.protected == server.policy.layers_for_cycle(cycle)


class TestHybridDeployment:
    def test_legacy_clients_train_unprotected(self):
        dataset = synthetic_cifar(num_samples=64, num_classes=NUM_CLASSES, seed=0)
        shards = dataset.shard(2)
        plan = TrainingPlan(lr=0.2, batch_size=16, local_steps=1)
        server = FLServer(
            lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            plan,
            StaticPolicy(LENET, ["L2"]),
            config=ServerConfig(allow_legacy=True),
        )
        tee_client = FLClient(
            "tee", shards[0], lenet5(num_classes=NUM_CLASSES, seed=7, scale=0.5),
            policy=StaticPolicy(LENET, ["L2"]), seed=0,
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
        np.testing.assert_array_equal(loaded.x, dataset.x.astype(np.float32))
        np.testing.assert_array_equal(loaded.y, dataset.y)

    def test_stored_blob_is_encrypted(self):
        dataset = synthetic_cifar(num_samples=10, num_classes=3, seed=1)
        client = FLClient(
            "c", dataset, lenet5(num_classes=3, seed=0, scale=0.5), seed=0
        )
        raw = client.storage.backend.get(client.storage.objects()[0])
        assert dataset.x.astype(np.float32).tobytes() not in raw

    def test_a_failed_shard_read_releases_the_enclave(self):
        """A client that raises after ``begin_cycle`` still ends its cycle:
        the TA frees its pool, nothing is exported, and the next cycle
        trains both clients (the cycle used to stay open for good, so
        every later ``begin_cycle`` refused)."""
        shape = (3, 16, 16)
        shards = synthetic_cifar(
            num_samples=32, num_classes=NUM_CLASSES, shape=shape, seed=0
        ).shard(2)

        def model():
            return lenet5(num_classes=NUM_CLASSES, input_shape=shape, seed=7)

        def policy():
            return StaticPolicy(LENET, ["L2", "L4"])

        server = FLServer(
            model(), TrainingPlan(lr=0.1, batch_size=8, local_steps=1), policy()
        )
        clients = [
            FLClient(f"client-{i}", shard, model(), policy=policy(), seed=i)
            for i, shard in enumerate(shards)
        ]
        victim = clients[0]
        load = victim._load_data

        def fail_once():
            victim._load_data = load
            raise IntegrityError("sealed shard failed verification")

        victim._load_data = fail_once
        with pytest.raises(IntegrityError):
            server.run_cycle(clients)
        assert victim.shielded.pool.used_bytes == 0
        assert victim.last_leakage is None
        assert server.cycle == 0
        updates = server.run_cycle(clients)
        assert [u.client_id for u in updates] == ["client-0", "client-1"]
        assert all(u.sealed_weights is not None for u in updates)


class TestBoundedLeakageState:
    """A client keeps the latest cycle's leakage record, not an archive."""

    def test_retained_state_does_not_grow_with_cycles(self):
        import gc
        import tracemalloc

        from repro import obs
        from repro.core.leakage import CycleLeakage
        from repro.obs.clock import MonotonicClock
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        def records():
            gc.collect()
            return sum(isinstance(o, CycleLeakage) for o in gc.get_objects())

        # The tracer keeps up to max_spans finished spans by design; drop
        # them so the measurement sees the client's own state.
        clock = MonotonicClock()
        previous = obs.configure(
            obs.ObsContext(MetricsRegistry(), Tracer(clock, max_spans=0), clock)
        )
        tracemalloc.start()
        try:
            baseline = records()
            server, clients, _ = build_deployment(lambda: StaticPolicy(LENET, ["L2"]))
            retained = []
            for cycles in (1, 4):
                for _ in range(cycles):
                    server.run_cycle(clients)
                assert records() - baseline == len(clients)
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            obs.configure(previous)
        after_one, after_five = retained
        # An archive of records would add ~860 kB over these four cycles;
        # numpy's small internal caches add a few kB.
        assert after_five <= after_one * 1.01, (after_one, after_five)
        assert all(c.last_leakage.protected == frozenset({2}) for c in clients)
