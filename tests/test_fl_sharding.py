"""Tests for hierarchical (sharded) aggregation with streaming reduce."""

import numpy as np
import pytest

from repro.fl import (
    HierarchicalAggregator,
    ShardingConfig,
    shard_of,
)
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


class TestPlanShards:
    """The contiguous, balanced shard plan, read through ``shard_of``."""

    def test_covers_every_item_exactly_once(self):
        for items in (1, 3, 5, 10, 17, 64):
            for shards in (1, 2, 3, 7, 8, 64, 100):
                plan = [shard_of(i, items, shards) for i in range(items)]
                assert plan == sorted(plan)  # contiguous
                sizes = np.bincount(plan, minlength=shards)
                assert sizes.max() - sizes.min() <= 1  # balanced
                assert list(sizes) == sorted(sizes, reverse=True)  # extras first

    def test_shard_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            shard_of(5, 5, 2)


class TestHierarchicalReduce:
    def test_empty_tree_rejected(self):
        tree = tree_for(make_update(0), ShardingConfig(num_shards=4))
        with pytest.raises(ValueError, match="no client weights"):
            tree.reduce()

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
                    shard_of(position, cohort, tree.num_shards),
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
            tree.fold(shard_of(position, 16, tree.num_shards), make_flat(position), 2)
        tree.reduce()
        assert tree.root_peak_bytes > 0
        assert tree.peak_bytes >= tree.root_peak_bytes


class TestObservability:
    def test_fold_and_partial_metrics(self):
        with fresh() as ctx:
            tree = tree_for(make_update(0), ShardingConfig(num_shards=2))
            for position in range(4):
                tree.fold(shard_of(position, 4, 2), make_flat(position), 1)
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
