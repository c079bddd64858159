"""Tests for client sampling."""

import numpy as np
import pytest

from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.nn import lenet5


class TestClientSampling:
    def make_server_and_pool(self, n_clients=5):
        dataset = synthetic_cifar(num_samples=20 * n_clients, num_classes=4, seed=0)
        shards = dataset.shard(n_clients)
        plan = TrainingPlan(lr=0.1, batch_size=10, local_steps=1)
        server = FLServer(lenet5(num_classes=4, seed=1, scale=0.5), plan)
        pool = [
            FLClient(f"c{i}", shards[i], lenet5(num_classes=4, seed=1, scale=0.5), seed=i)
            for i in range(n_clients)
        ]
        return server, pool

    def test_sample_size(self):
        server, pool = self.make_server_and_pool()
        sampled = server.sample_participants(pool, 0.4, np.random.default_rng(0))
        assert len(sampled) == 2

    def test_at_least_one_sampled(self):
        server, pool = self.make_server_and_pool()
        assert len(server.sample_participants(pool, 0.01)) == 1

    def test_fraction_validated(self):
        server, pool = self.make_server_and_pool()
        with pytest.raises(ValueError):
            server.sample_participants(pool, 0.0)
        with pytest.raises(ValueError):
            server.sample_participants(pool, 1.5)

    def test_empty_pool_rejected(self):
        server, _ = self.make_server_and_pool()
        with pytest.raises(ValueError):
            server.sample_participants([], 0.5)

    def test_run_sampled_advances_cycles(self):
        server, pool = self.make_server_and_pool(3)
        server.run_sampled(pool, cycles=2, fraction=0.7)
        assert server.cycle == 2

    def test_sampling_varies_across_cycles(self):
        server, pool = self.make_server_and_pool(5)
        rng = np.random.default_rng(1)
        draws = {
            tuple(c.client_id for c in server.sample_participants(pool, 0.4, rng))
            for _ in range(10)
        }
        assert len(draws) > 1
