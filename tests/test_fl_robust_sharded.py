"""Property-based tests: robust rules compose exactly with sharding.

The claims under test are the ones the robustness module documents:

* **flat equivalence** — a single-shard tree is bitwise identical to the
  pure rule over the same updates, for every rule;
* **routing invariance** — the reduced weights are a pure function of the
  *position-ordered* updates: shard count and routing cannot change them
  (gather rules sort by cohort position; the streaming trimmed mean is an
  error-free transformation of sums and candidate extremes);
* **honest-majority recovery** — with fewer attackers than the rule
  tolerates, the sharded robust aggregate lands near the honest centre
  however the cohort is routed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fl import HierarchicalAggregator, ShardingConfig, shard_of
from repro.fl.robust import apply_rule
from repro.nn.serialize import flatten_weights

pytestmark = pytest.mark.property

RULE_NAMES = ["median", "trimmed_mean", "krum", "clipped_fedavg"]


def make_updates(seed, num_clients, size, magnitude=3):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-magnitude, magnitude + 1, size=num_clients)
    updates = [
        [{"w": scales[i] * rng.normal(size=size), "b": rng.normal(size=2)}]
        for i in range(num_clients)
    ]
    counts = [int(c) for c in rng.integers(1, 50, size=num_clients)]
    return updates, counts


def reduce_tree(updates, counts, num_shards, rule, *, trim=1, f=1, order=None):
    tree = HierarchicalAggregator(
        flatten_weights(updates[0]).size,
        ShardingConfig(num_shards=num_shards, track_memory=False),
        rule=rule,
        trim=trim,
        num_byzantine=f,
    )
    cohort = len(updates)
    positions = list(range(cohort)) if order is None else list(order)
    for position in positions:
        shard = shard_of(position, cohort, tree.num_shards)
        flat = flatten_weights(updates[position])
        tree.fold(shard, flat, counts[position], position=position)
    tree.partials()
    return tree.reduce()


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 16),
    size=st.integers(1, 9),
    rule=st.sampled_from(RULE_NAMES),
)
def test_single_shard_is_bitwise_the_pure_rule(seed, num_clients, size, rule):
    updates, counts = make_updates(seed, num_clients, size)
    flat_updates = [flatten_weights(u) for u in updates]
    pure = apply_rule(rule, flat_updates, trim=1, num_byzantine=1)
    sharded = reduce_tree(updates, counts, 1, rule)
    np.testing.assert_array_equal(pure, sharded)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 16),
    num_shards=st.integers(1, 24),
    size=st.integers(1, 9),
    rule=st.sampled_from(RULE_NAMES),
    magnitude=st.integers(0, 5),
)
def test_shard_count_and_arrival_order_never_change_the_bits(
    seed, num_clients, num_shards, size, rule, magnitude
):
    # Gather rules sort the collected union by cohort position, and the
    # trimmed mean rounds the exact trimmed sum once, so any topology and
    # any arrival order reproduces the flat call exactly.
    updates, counts = make_updates(seed, num_clients, size, magnitude)
    reference = reduce_tree(updates, counts, 1, rule)
    rng = np.random.default_rng(seed ^ 0x5EED)
    order = rng.permutation(num_clients)
    permuted = reduce_tree(updates, counts, num_shards, rule, order=order)
    np.testing.assert_array_equal(reference, permuted)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_shards=st.integers(2, 8),
    trim=st.integers(1, 4),
    magnitude=st.integers(0, 4),
)
def test_streaming_trimmed_mean_is_routing_invariant_and_correctly_rounded(
    seed, num_shards, trim, magnitude
):
    # The multi-shard trimmed path never gathers the cohort.  Its result
    # is the correctly rounded quotient of the *exact* trimmed sum, so it
    # is bitwise identical across every shard count >= 2 and every
    # arrival order — and bitwise equal to a math.fsum of the kept rows
    # (the strongest possible reference).
    updates, counts = make_updates(seed, num_clients=12, size=7, magnitude=magnitude)
    reference = reduce_tree(updates, counts, 2, "trimmed_mean", trim=trim)
    rng = np.random.default_rng(seed ^ 0x5EED)
    order = rng.permutation(len(updates))
    permuted = reduce_tree(
        updates, counts, num_shards, "trimmed_mean", trim=trim, order=order
    )
    np.testing.assert_array_equal(reference, permuted)

    matrix = np.stack([flatten_weights(u) for u in updates])
    kept = np.sort(matrix, axis=0)[trim : matrix.shape[0] - trim]
    exact = np.array(
        [math.fsum(kept[:, j]) for j in range(matrix.shape[1])]
    ) / kept.shape[0]
    np.testing.assert_array_equal(reference, exact)


@given(
    seed=st.integers(0, 2**32 - 1),
    num_shards=st.integers(1, 8),
    rule=st.sampled_from(["median", "trimmed_mean", "krum"]),
)
def test_honest_majority_recovers_under_any_routing(seed, num_shards, rule):
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=6)
    honest = [
        [{"w": centre + 0.01 * rng.normal(size=6), "b": np.zeros(2)}]
        for _ in range(9)
    ]
    hostile = [
        [{"w": np.full(6, 1e6), "b": np.zeros(2)}] for _ in range(2)
    ]
    updates = honest + hostile
    counts = [1] * len(updates)
    order = rng.permutation(len(updates))
    result = reduce_tree(
        updates, counts, num_shards, rule, trim=2, f=2, order=order
    )
    # flatten_weights orders keys alphabetically: "b" (2) then "w" (6).
    assert np.linalg.norm(result[2:] - centre) < 0.1
