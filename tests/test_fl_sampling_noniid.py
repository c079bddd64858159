"""Tests for client sampling and non-IID data sharding."""

import numpy as np
import pytest

from repro.data import synthetic_cifar
from repro.fl import FLClient, FLServer, TrainingPlan
from repro.nn import lenet5


class TestDirichletShard:
    @pytest.fixture
    def dataset(self):
        return synthetic_cifar(num_samples=300, num_classes=6, seed=0)

    def test_partition_is_complete_and_disjoint(self, dataset):
        shards = dataset.dirichlet_shard(4, alpha=0.5)
        total = sum(len(s) for s in shards)
        assert total == len(dataset)

    def test_no_empty_shards(self, dataset):
        shards = dataset.dirichlet_shard(8, alpha=0.1, rng=np.random.default_rng(3))
        assert all(len(s) > 0 for s in shards)

    def test_small_alpha_skews_label_distributions(self, dataset):
        """With tiny alpha, shards specialise in few classes."""
        skewed = dataset.dirichlet_shard(4, alpha=0.05, rng=np.random.default_rng(0))
        iid = dataset.dirichlet_shard(4, alpha=100.0, rng=np.random.default_rng(0))

        def label_entropy(shard):
            counts = np.bincount(shard.y, minlength=6) + 1e-12
            p = counts / counts.sum()
            return float(-(p * np.log(p)).sum())

        assert np.mean([label_entropy(s) for s in skewed]) < np.mean(
            [label_entropy(s) for s in iid]
        )

    def test_invalid_params_rejected(self, dataset):
        with pytest.raises(ValueError):
            dataset.dirichlet_shard(0)
        with pytest.raises(ValueError):
            dataset.dirichlet_shard(2, alpha=0.0)

    def test_deterministic_per_rng(self, dataset):
        a = dataset.dirichlet_shard(3, rng=np.random.default_rng(5))
        b = dataset.dirichlet_shard(3, rng=np.random.default_rng(5))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.y, sb.y)


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
