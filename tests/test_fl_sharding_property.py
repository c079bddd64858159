"""Property-based tests: the sharded streaming reduce is exactly FedAvg.

The claim under test is the strong one the sharding module documents:
because every fold and merge is an error-free transformation, the final
weights are a pure function of the multiset of client updates — bitwise
independent of shard count, shard sizes (single-client shards included),
routing, and merge shape.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fl import (
    HierarchicalAggregator,
    ShardingConfig,
    TopKCompressor,
    fedavg,
    shard_of,
)
from repro.fl.aggregation import CompensatedAccumulator
from repro.nn.serialize import flatten_weights

pytestmark = pytest.mark.property


def make_updates(seed, num_clients, size, magnitude):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-magnitude, magnitude + 1, size=num_clients)
    updates = [
        [{"w": scales[i] * rng.normal(size=size), "b": rng.normal(size=2)}]
        for i in range(num_clients)
    ]
    counts = [int(c) for c in rng.integers(1, 50, size=num_clients)]
    return updates, counts


def tree_for(updates, num_shards):
    return HierarchicalAggregator(
        flatten_weights(updates[0]).size,
        ShardingConfig(num_shards=num_shards),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 24),
    num_shards=st.integers(1, 32),
    size=st.integers(1, 17),
    magnitude=st.integers(0, 6),
)


def test_sharded_reduce_is_bitwise_fedavg(
    seed, num_clients, num_shards, size, magnitude
):
    updates, counts = make_updates(seed, num_clients, size, magnitude)
    flat = flatten_weights(fedavg(updates, counts))
    tree = tree_for(updates, num_shards)
    for position, (update, count) in enumerate(zip(updates, counts)):
        shard = shard_of(position, num_clients, tree.num_shards)
        tree.fold(shard, flatten_weights(update), count)
    np.testing.assert_array_equal(tree.reduce(), flat)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(2, 16),
    size=st.integers(4, 40),
)


def test_single_client_shards_are_exact(seed, num_clients, size):
    # Degenerate topology: as many shards as clients, one fold each.
    updates, counts = make_updates(seed, num_clients, size, 3)
    flat = flatten_weights(fedavg(updates, counts))
    tree = tree_for(updates, num_clients)
    for position, (update, count) in enumerate(zip(updates, counts)):
        tree.fold(position, flatten_weights(update), count)
    np.testing.assert_array_equal(tree.reduce(), flat)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 12),
    num_shards=st.integers(1, 12),
    size=st.integers(8, 64),
    ratio=st.floats(0.05, 1.0),
)


def test_sparse_topk_folds_match_flat_sparse_mean(
    seed, num_clients, num_shards, size, ratio
):
    # Top-k updates fold densified (as serve's flat64() hands them over):
    # the exact zeros off the support change no bit of the sparse mean.
    rng = np.random.default_rng(seed)
    compressor = TopKCompressor(ratio=ratio)
    flats = [rng.normal(size=size) for _ in range(num_clients)]
    sparse = [compressor.compress(flat) for flat in flats]
    counts = [int(c) for c in rng.integers(1, 20, size=num_clients)]
    acc = CompensatedAccumulator(size)
    for update, count in zip(sparse, counts):
        acc.add_at(update.indices, float(count) * update.values)
    expected = acc.value() / float(sum(counts))
    tree = HierarchicalAggregator(size, ShardingConfig(num_shards=num_shards))
    for position, (update, count) in enumerate(zip(sparse, counts)):
        dense = np.zeros(size)
        dense[update.indices] = update.values
        tree.fold(shard_of(position, num_clients, tree.num_shards), dense, count)
    np.testing.assert_array_equal(tree.reduce(), expected)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(2, 12),
    size=st.integers(1, 16),
)


def test_routing_cannot_change_the_result(seed, num_clients, size):
    updates, counts = make_updates(seed, num_clients, size, 4)
    rng = np.random.default_rng(seed ^ 0xC0FFEE)
    flats = [flatten_weights(update) for update in updates]
    tree_a = tree_for(updates, 4)
    tree_b = tree_for(updates, 4)
    routes = rng.integers(0, 4, size=num_clients)
    order = rng.permutation(num_clients)
    for position in range(num_clients):
        tree_a.fold(int(routes[position]), flats[position], counts[position])
    for position in order:  # different routing AND different arrival order
        tree_b.fold(int(position) % 4, flats[position], counts[position])
    np.testing.assert_array_equal(tree_a.reduce(), tree_b.reduce())
