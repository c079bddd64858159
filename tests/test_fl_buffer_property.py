"""Property-based tests: the buffered commit is exact and order-free.

Three claims, randomised over update values spanning many orders of
magnitude, shard topologies, and arrival orders:

1. With constant staleness weights and ``K == cohort``, one async commit
   is **bitwise identical** to the sync :func:`~repro.fl.aggregation.fedavg`
   round over the same updates — the equivalence the simulator's
   sync-vs-async determinism tests lean on.
2. A commit is a pure function of the folded multiset: arrival order and
   shard routing cannot change a single bit, for the exact weighted fold
   and for the robust rules alike.
3. The staleness-weighted fold matches a per-coordinate :func:`math.fsum`
   reference over the rounded products ``(w_i * n_i) * x_i`` — the
   accumulator introduces no rounding beyond the one final division.
4. The in-place accumulator and the float-carried weight expansion hold the
   bits the allocating implementation held: every mid-window ``state_dict``
   equals one rebuilt from the oracle in ``test_fl_aggregation``, nothing
   handed out mid-window is touched by later folds, and a checkpoint
   written by the pre-in-place tree round-trips and resumes bitwise.
"""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.fl import (
    BufferConfig,
    BufferedAggregator,
    ShardingConfig,
    fedavg,
    shard_of,
)
from repro.nn.serialize import flatten_weights

from .test_fl_aggregation import ReferenceAccumulator

pytestmark = [pytest.mark.property, getattr(pytest.mark, "async")]


def make_updates(seed, num_clients, size, magnitude):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-magnitude, magnitude + 1, size=num_clients)
    updates = [
        [{"w": scales[i] * rng.normal(size=size), "b": rng.normal(size=2)}]
        for i in range(num_clients)
    ]
    counts = [int(c) for c in rng.integers(1, 50, size=num_clients)]
    return [flatten_weights(update) for update in updates], counts


def assert_flat_equal(left, right):
    assert left.tobytes() == right.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 24),
    num_shards=st.integers(1, 32),
    size=st.integers(1, 17),
    magnitude=st.integers(0, 6),
)
def test_full_buffer_commit_is_bitwise_fedavg(
    seed, num_clients, num_shards, size, magnitude
):
    updates, counts = make_updates(seed, num_clients, size, magnitude)
    buffer = BufferedAggregator(
        updates[0].size,
        BufferConfig(size=num_clients, staleness="constant"),
        ShardingConfig(num_shards=num_shards, track_memory=False),
    )
    for position, (update, count) in enumerate(zip(updates, counts)):
        shard = shard_of(position, num_clients, num_shards)
        buffer.fold(shard, update, count, staleness=0, sort_key=position)
    sync = fedavg([[{"w": update}] for update in updates], counts)
    assert_flat_equal(buffer.commit(), sync[0]["w"])


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(2, 16),
    shards_a=st.integers(1, 8),
    shards_b=st.integers(1, 8),
    size=st.integers(1, 16),
    rule=st.sampled_from(["fedavg", "median", "trimmed_mean", "krum"]),
)
def test_commit_invariant_to_arrival_order_and_routing(
    seed, num_clients, shards_a, shards_b, size, rule
):
    updates, counts = make_updates(seed, num_clients, size, 4)
    rng = np.random.default_rng(seed ^ 0xBEEF)
    stalenesses = [int(s) for s in rng.integers(0, 6, size=num_clients)]

    def build(num_shards):
        return BufferedAggregator(
            updates[0].size,
            BufferConfig(
                size=num_clients, staleness="polynomial", exponent=0.5
            ),
            ShardingConfig(num_shards=num_shards, track_memory=False),
            rule=rule,
        )

    one = build(shards_a)
    for position in range(num_clients):
        one.fold(
            int(rng.integers(0, shards_a)),
            updates[position],
            counts[position],
            staleness=stalenesses[position],
            sort_key=position,
        )
    other = build(shards_b)
    for position in rng.permutation(num_clients):
        other.fold(
            int(rng.integers(0, shards_b)),
            updates[position],
            counts[position],
            staleness=stalenesses[position],
            sort_key=int(position),
        )
    assert_flat_equal(one.commit(), other.commit())


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 20),
    size=st.integers(1, 12),
    magnitude=st.integers(0, 6),
    exponent=st.floats(0.0, 3.0),
)
def test_weighted_fold_matches_fsum_reference(
    seed, num_clients, size, magnitude, exponent
):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-magnitude, magnitude + 1, size=num_clients)
    vectors = [scales[i] * rng.normal(size=size) for i in range(num_clients)]
    counts = [int(c) for c in rng.integers(1, 50, size=num_clients)]
    stalenesses = [int(s) for s in rng.integers(0, 8, size=num_clients)]
    config = BufferConfig(
        size=num_clients, staleness="polynomial", exponent=exponent
    )
    buffer = BufferedAggregator(size, config)
    for i, vector in enumerate(vectors):
        buffer.fold(0, vector, counts[i], staleness=stalenesses[i])
    committed = buffer.commit()
    contributions = [
        config.weight(stalenesses[i]) * float(counts[i])
        for i in range(num_clients)
    ]
    denominator = math.fsum(contributions)
    for j in range(size):
        numerator = math.fsum(
            contributions[i] * vectors[i][j] for i in range(num_clients)
        )
        assert committed[j] == numerator / denominator


def encode(array):
    return base64.b64encode(np.asarray(array, dtype=np.float64).tobytes()).decode()


@given(
    seed=st.integers(0, 2**32 - 1),
    num_clients=st.integers(1, 24),
    num_shards=st.integers(1, 4),
    size=st.integers(1, 9),
    magnitude=st.integers(0, 6),
    exponent=st.floats(0.0, 3.0),
)
def test_window_state_is_bitwise_the_allocating_oracles(
    seed, num_clients, num_shards, size, magnitude, exponent
):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-magnitude, magnitude + 1, size=num_clients)
    vectors = [scales[i] * rng.normal(size=size) for i in range(num_clients)]
    for i in range(1, num_clients, 3):  # exact cancellations of the previous addend
        vectors[i] = -vectors[i - 1]
    counts = [int(c) for c in rng.integers(1, 50, size=num_clients)]
    for i in range(1, num_clients, 3):
        counts[i] = counts[i - 1]
    config = BufferConfig(size=num_clients, staleness="polynomial", exponent=exponent)
    buffer = BufferedAggregator(
        size, config, ShardingConfig(num_shards=num_shards, track_memory=False)
    )
    routes = [
        (int(rng.integers(0, num_shards)), int(rng.integers(0, 8)))
        for _ in range(num_clients)
    ]
    oracles = [
        (ReferenceAccumulator(size), ReferenceAccumulator(1)) for _ in range(num_shards)
    ]

    def oracle_bytes():
        return sum(c.nbytes for pair in oracles for acc in pair for c in acc.components)

    peak, handed_out = 0, []
    for i, (vector, (shard, staleness)) in enumerate(zip(vectors, routes)):
        kept = vector.copy()
        buffer.fold(shard, vector, counts[i], staleness=staleness)
        assert vector.tobytes() == kept.tobytes()
        contribution = config.weight(staleness) * float(counts[i])
        oracles[shard][0].add(contribution * vector)
        oracles[shard][1].add(np.array([contribution]))
        peak = max(peak, oracle_bytes())
        state = buffer.state_dict()
        assert state["peak_bytes"] == buffer.peak_bytes == peak
        assert buffer.live_bytes == oracle_bytes()
        for snap, (vector_sum, weight_sum) in zip(state["sums"], oracles):
            assert snap["vector"] == [encode(c) for c in vector_sum.components]
            assert snap["weight"] == [encode(c) for c in weight_sum.components]
            assert snap["vector_folds"] == snap["weight_folds"] == vector_sum.folds
        partials = buffer.partials()
        frozen = [[c.tobytes() for c in partial.components] for partial in partials]
        handed_out.append((json.dumps(state, sort_keys=True), partials, frozen))
    # Nothing handed out mid-window was touched by the folds that followed.
    for _, partials, frozen in handed_out:
        assert [[c.tobytes() for c in p.components] for p in partials] == frozen
    # A mid-window snapshot resumes into the same remaining folds and commit.
    middle = num_clients // 2
    resumed = BufferedAggregator(
        size, config, ShardingConfig(num_shards=num_shards, track_memory=False)
    )
    if middle:
        resumed.load_state(json.loads(handed_out[middle - 1][0]))
        assert json.dumps(resumed.state_dict(), sort_keys=True) == handed_out[middle - 1][0]
    for i in range(middle, num_clients):
        shard, staleness = routes[i]
        resumed.fold(shard, vectors[i], counts[i], staleness=staleness)
    assert json.dumps(resumed.state_dict(), sort_keys=True) == handed_out[-1][0]
    assert resumed.live_bytes == buffer.live_bytes
    assert_flat_equal(resumed.commit(), buffer.commit())
    assert resumed.peak_bytes == buffer.peak_bytes


# ``json.dumps(state_dict(), sort_keys=True)`` of a 2-shard polynomial-staleness
# window after four folds, written by the tree *before* the in-place accumulator
# (weight expansions were ``CompensatedAccumulator(1)`` arrays), plus what that
# tree committed after the two remaining folds and the peak it reported.
PARENT_FOLDS = [
    (0, [1e16, 1.0, -3.5e-7], 7, 0),
    (1, [0.1, -2e8, 4.0], 3, 2),
    (0, [-1e16, 1e-9, 0.3], 11, 1),
    (0, [2.5, 7e-3, 1e5], 5, 3),
    (1, [1e-12, 3.0, -0.7], 2, 5),
    (0, [0.3, 0.3, 0.3], 13, 1),
]
PARENT_SNAPSHOT = (
    '{"commits": 0, "peak_bytes": 96, "pending": 4, "rule": "fedavg", "sums": '
    '[{"total_samples": 23, "vector": ["qsbr6XSlO8MYWaSF6xEcQLrL56qShA5B", '
    '"AAAAAAAA0D8AAAAgbhV9vAAAgObE21E9"], "vector_folds": 3, "weight": '
    '["jrw7czZHMUA=", "AAAAAAAA4Dw="], "weight_folds": 3}, {"total_samples": 3, '
    '"vector": ["IgqthpUrxj/KhoOxzKW0wapMWOh6thtA"], "vector_folds": 1, '
    '"weight": ["qkxY6Hq2+z8="], "weight_folds": 1}]}'
)
PARENT_COMMIT_HEX = "0194f7e7767ceec248aa52e7c3c466c10f93341cb4d3c040"
PARENT_PEAK_BYTES = 128


def parent_window():
    return BufferedAggregator(
        3,
        BufferConfig(size=6, staleness="polynomial", exponent=0.5),
        ShardingConfig(num_shards=2, track_memory=False),
    )


def test_parent_written_checkpoint_round_trips_and_resumes_bitwise():
    fresh = parent_window()
    for shard, vector, count, staleness in PARENT_FOLDS[:4]:
        fresh.fold(shard, np.array(vector), count, staleness=staleness)
    assert json.dumps(fresh.state_dict(), sort_keys=True) == PARENT_SNAPSHOT
    resumed = parent_window()
    resumed.load_state(json.loads(PARENT_SNAPSHOT))
    assert json.dumps(resumed.state_dict(), sort_keys=True) == PARENT_SNAPSHOT
    for window in (fresh, resumed):
        for shard, vector, count, staleness in PARENT_FOLDS[4:]:
            window.fold(shard, np.array(vector), count, staleness=staleness)
        assert window.peak_bytes == PARENT_PEAK_BYTES
        assert window.commit().tobytes().hex() == PARENT_COMMIT_HEX
