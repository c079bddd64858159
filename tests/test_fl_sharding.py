"""Tests for hierarchical (sharded) aggregation with streaming reduce."""

import numpy as np
import pytest

from repro.core import StaticPolicy
from repro.data import synthetic_cifar
from repro.fl import (
    FLClient,
    FLServer,
    HierarchicalAggregator,
    RoundConfig,
    ServerConfig,
    ShardingConfig,
    TopKCompressor,
    TrainingPlan,
    fedavg,
    shard_of,
)
from repro.fl.aggregation import CompensatedAccumulator
from repro.nn import lenet5
from repro.nn.serialize import flatten_weights
from repro.obs import fresh


def make_update(seed, layers=3, size=7):
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.normal(size=size), "b": rng.normal(size=2)}
        for _ in range(layers)
    ]


def make_flat(seed, layers=3, size=7):
    return flatten_weights(make_update(seed, layers, size))


def tree_for(update, config=None):
    return HierarchicalAggregator(flatten_weights(update).size, config)


def assert_flat_equal(left, right):
    assert left.tobytes() == right.tobytes()


def densify(update):
    out = np.zeros(update.size)
    out[update.indices] = update.values
    return out


def sparse_mean(updates, counts):
    """The exact sample-weighted mean folded over each update's support."""
    acc = CompensatedAccumulator(updates[0].size)
    for update, count in zip(updates, counts):
        acc.add_at(update.indices, float(count) * update.values)
    return acc.value() / float(sum(counts))


class TestPlanShards:
    """The contiguous, balanced shard plan, read through ``shard_of``."""

    def test_balanced_contiguous(self):
        assert [shard_of(i, 10, 3) for i in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_covers_every_item_exactly_once(self):
        for items in (1, 5, 17, 64):
            for shards in (1, 2, 7, 64, 100):
                plan = [shard_of(i, items, shards) for i in range(items)]
                assert plan == sorted(plan)  # contiguous
                sizes = np.bincount(plan, minlength=shards)
                assert sizes.max() - sizes.min() <= 1  # balanced
                assert list(sizes) == sorted(sizes, reverse=True)  # extras first

    def test_more_shards_than_items_leaves_empties(self):
        assert [shard_of(i, 3, 8) for i in range(3)] == [0, 1, 2]

    def test_shard_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shard_of(5, 5, 2)


class TestHierarchicalReduce:
    def test_single_shard_matches_fedavg(self):
        updates = [make_update(i) for i in range(5)]
        counts = [1, 3, 2, 8, 1]
        tree = tree_for(updates[0])
        for update, count in zip(updates, counts):
            tree.fold(0, flatten_weights(update), count)
        assert_flat_equal(tree.reduce(), flatten_weights(fedavg(updates, counts)))

    @pytest.mark.parametrize("num_shards", [2, 3, 7, 16])
    def test_sharded_bitwise_identical_to_flat(self, num_shards):
        updates = [make_update(i, size=11) for i in range(13)]
        counts = [1 + (i * 7) % 5 for i in range(13)]
        flat = flatten_weights(fedavg(updates, counts))
        tree = tree_for(updates[0], ShardingConfig(num_shards=num_shards))
        for position, (update, count) in enumerate(zip(updates, counts)):
            tree.fold(tree.shard_for(position, 13), flatten_weights(update), count)
        assert_flat_equal(tree.reduce(), flat)

    def test_result_independent_of_routing(self):
        updates = [make_update(i) for i in range(9)]
        counts = [2] * 9
        reference = flatten_weights(fedavg(updates, counts))
        # Adversarial routing: everything on the last shard, then striped.
        for router in (lambda p: 3, lambda p: p % 4):
            tree = tree_for(updates[0], ShardingConfig(num_shards=4))
            for position, (update, count) in enumerate(zip(updates, counts)):
                tree.fold(router(position), flatten_weights(update), count)
            assert_flat_equal(tree.reduce(), reference)

    def test_empty_tree_rejected(self):
        tree = tree_for(make_update(0), ShardingConfig(num_shards=4))
        with pytest.raises(ValueError, match="no client weights"):
            tree.reduce()

    def test_sparse_folds_match_dense(self):
        # Sparse frames are densified before any fold (serve's flat64());
        # the dense tree then agrees with the exact sparse-support mean.
        size = 40
        compressor = TopKCompressor(ratio=0.25)
        rng = np.random.default_rng(5)
        flats = [rng.normal(size=size) for _ in range(6)]
        sparse = [compressor.compress(f) for f in flats]
        counts = [3, 1, 4, 1, 5, 9]
        tree = HierarchicalAggregator(size, ShardingConfig(num_shards=3))
        for position, (update, count) in enumerate(zip(sparse, counts)):
            tree.fold(tree.shard_for(position, 6), densify(update), count)
        expected = sparse_mean(sparse, counts)
        np.testing.assert_array_equal(tree.reduce(), expected)

    def test_bad_folds_rejected(self):
        tree = tree_for(make_update(0), ShardingConfig(num_shards=2))
        with pytest.raises(ValueError, match="num_samples"):
            tree.fold(0, make_flat(1), 0)
        with pytest.raises(ValueError, match="parameter count"):
            tree.fold(0, np.zeros(3), 1)
        with pytest.raises(ValueError, match="unknown aggregation rule"):
            HierarchicalAggregator(3, rule="meteor")


class TestBoundedMemory:
    def test_peak_bytes_independent_of_cohort_size(self):
        template = make_update(0)
        peaks = []
        for cohort in (4, 32, 256):
            tree = tree_for(template, ShardingConfig(num_shards=4))
            for position in range(cohort):
                tree.fold(
                    tree.shard_for(position, cohort),
                    make_flat(position),
                    1 + position % 3,
                )
            tree.reduce()
            peaks.append(tree.peak_bytes)
        # O(model size), not O(clients x model): folding 64x the clients
        # must not grow the resident accumulator.
        assert peaks[0] == peaks[1] == peaks[2]
        assert peaks[0] > 0

    def test_peak_accounts_for_root_merge(self):
        template = make_update(0)
        tree = tree_for(template, ShardingConfig(num_shards=8))
        for position in range(16):
            tree.fold(tree.shard_for(position, 16), make_flat(position), 2)
        tree.reduce()
        assert tree.root_peak_bytes > 0
        assert tree.peak_bytes >= tree.root_peak_bytes


class TestObservability:
    def test_fold_and_partial_metrics(self):
        with fresh() as ctx:
            tree = tree_for(make_update(0), ShardingConfig(num_shards=2))
            for position in range(4):
                tree.fold(tree.shard_for(position, 4), make_flat(position), 1)
            partials = tree.partials()
            tree.reduce()
            snap = ctx.registry.snapshot()
        assert sum(snap["counters"]["fl.shard.folds"].values()) == 4
        assert sum(snap["counters"]["fl.shard.partial_bytes"].values()) == sum(
            p.wire_bytes() for p in partials
        )
        assert "fl.shard.bytes.live" in snap["gauges"]
        spans = {s["name"] for s in ctx.tracer.export()["spans"]}
        assert "fl.shard.reduce" in spans

    def test_track_memory_off_suppresses_gauges(self):
        with fresh() as ctx:
            tree = tree_for(
                make_update(0), ShardingConfig(num_shards=2, track_memory=False)
            )
            tree.fold(0, make_flat(1), 1)
            snap = ctx.registry.snapshot()
        assert "fl.shard.bytes.live" not in snap["gauges"]
        # Folds are still counted -- only the per-fold gauges are elided.
        assert sum(snap["counters"]["fl.shard.folds"].values()) == 1


class TestShardPartial:
    def test_wire_bytes_positive_and_component_scaling(self):
        tree = tree_for(make_update(0))
        tree.fold(0, make_flat(1), 2)
        (partial,) = tree.partials()
        assert partial.shard_id == 0
        assert partial.total_samples == 2
        assert partial.folds == 1
        assert partial.wire_bytes() > 0

    def test_partial_is_a_snapshot(self):
        tree = tree_for(make_update(0))
        tree.fold(0, make_flat(1), 2)
        (partial,) = tree.partials()
        before = [c.copy() for c in partial.components]
        tree.fold(0, make_flat(2), 1)
        for original, snapshot in zip(before, partial.components):
            np.testing.assert_array_equal(original, snapshot)


class TestShardedServer:
    """FLServer over a shard tree: the shielded round commits flat's bits."""

    def run_round(self, rule, num_shards):
        def model():
            return lenet5(num_classes=5, seed=7, scale=0.5)

        def policy(target):
            return StaticPolicy(target, ["L2", "L4"])

        shards = synthetic_cifar(num_samples=48, num_classes=5, seed=0).shard(3)
        global_model = model()
        config = ServerConfig(
            round=RoundConfig(rule=rule),
            sharding=ShardingConfig(num_shards=num_shards),
        )
        server = FLServer(
            global_model,
            TrainingPlan(lr=0.2, batch_size=16, local_steps=1),
            policy=policy(global_model),
            config=config,
        )
        fleet = []
        for i in range(3):
            local = model()
            fleet.append(
                FLClient(f"client-{i}", shards[i], local, policy=policy(local), seed=i)
            )
        with fresh() as ctx:
            server.run_cycle(fleet)
            series = ctx.registry.counter("fl.bytes.shard").series()
        return flatten_weights(server.model.get_weights()), server.channel, series

    @pytest.mark.parametrize("rule", ["fedavg", "median"])
    def test_sharded_round_matches_flat_and_prices_partials(self, rule):
        flat_weights, flat_channel, flat_series = self.run_round(rule, 1)
        weights, channel, series = self.run_round(rule, 3)
        assert_flat_equal(weights, flat_weights)
        assert flat_channel.partials == 0 and flat_series == {}
        assert channel.partials == 3
        assert channel.shard_bytes > 0
        assert sum(series.values()) == channel.shard_bytes
