"""Unit tests for the FedBuff-style :class:`BufferedAggregator`.

The bitwise equivalence and order-invariance claims get their randomised
treatment in ``test_fl_buffer_property.py``; this module pins the API:
window lifecycle, staleness weighting, robust-rule composition, wire
partials, and the mid-window checkpoint round-trip.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fl import (
    BufferConfig,
    BufferedAggregator,
    RobustShardPartial,
    ShardPartial,
    ShardingConfig,
    apply_rule,
    fedavg,
)
from repro.nn.serialize import flatten_weights

pytestmark = [getattr(pytest.mark, "async")]  # "async" is a keyword


SIZE = 14  # make_update's parameter count: 2 layers x (5 + 2)


def make_update(seed, layers=2, size=5):
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.normal(size=size), "b": rng.normal(size=2)}
        for _ in range(layers)
    ]


def make_flat(seed):
    return flatten_weights(make_update(seed))


def assert_flat_equal(left, right):
    assert left.tobytes() == right.tobytes()


class TestBufferConfig:
    def test_defaults(self):
        config = BufferConfig()
        assert config.size == 32
        assert config.staleness == "constant"

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferConfig(size=0)
        with pytest.raises(ValueError):
            BufferConfig(staleness="linear")
        with pytest.raises(ValueError):
            BufferConfig(exponent=-0.5)

    def test_constant_weight_is_exactly_one(self):
        config = BufferConfig(staleness="constant")
        for tau in (0, 1, 7, 1000):
            assert config.weight(tau) == 1.0

    def test_polynomial_weight_decays(self):
        config = BufferConfig(staleness="polynomial", exponent=1.0)
        assert config.weight(0) == 1.0
        assert config.weight(1) == 0.5
        assert config.weight(3) == 0.25
        half = BufferConfig(staleness="polynomial", exponent=0.5)
        assert half.weight(3) == pytest.approx(0.5)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            BufferConfig().weight(-1)


class TestWindowLifecycle:
    def test_pending_and_ready(self):
        updates = [make_flat(i) for i in range(3)]
        buffer = BufferedAggregator(SIZE, BufferConfig(size=3))
        assert buffer.pending == 0 and not buffer.ready
        for update in updates[:2]:
            buffer.fold(0, update, 1)
        assert buffer.pending == 2 and not buffer.ready
        buffer.fold(0, updates[2], 1)
        assert buffer.ready
        buffer.commit()
        assert buffer.pending == 0 and not buffer.ready
        assert buffer.commits == 1

    def test_empty_commit_rejected(self):
        buffer = BufferedAggregator(SIZE, BufferConfig(size=2))
        with pytest.raises(ValueError, match="no updates buffered"):
            buffer.commit()

    def test_bad_folds_rejected(self):
        buffer = BufferedAggregator(SIZE, BufferConfig(size=2))
        with pytest.raises(ValueError, match="num_samples"):
            buffer.fold(0, make_flat(1), 0)
        with pytest.raises(ValueError, match="parameter count"):
            buffer.fold(0, np.zeros(3), 1)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation rule"):
            BufferedAggregator(SIZE, rule="meteor")

    def test_flat_passthrough_is_bitwise_identical(self):
        # The window neither writes to nor keeps the vector it is handed:
        # overwriting the caller's array after each fold changes no bit.
        updates = [make_flat(i) for i in range(4)]
        for rule in ("fedavg", "median"):
            kept = BufferedAggregator(SIZE, BufferConfig(size=4), rule=rule)
            reused = BufferedAggregator(SIZE, BufferConfig(size=4), rule=rule)
            for position, update in enumerate(updates):
                kept.fold(0, update, 3, sort_key=position)
                scratch = update.copy()
                reused.fold(0, scratch, 3, sort_key=position)
                assert_flat_equal(scratch, update)
                scratch[:] = np.nan
            assert_flat_equal(kept.commit(), reused.commit())


class TestFedavgCommit:
    def test_matches_fedavg_bitwise(self):
        updates = [make_update(i) for i in range(6)]
        counts = [1, 3, 2, 8, 1, 5]
        for shards in (1, 3):
            buffer = BufferedAggregator(
                SIZE,
                BufferConfig(size=6),
                ShardingConfig(num_shards=shards, track_memory=False),
            )
            for position, (update, count) in enumerate(zip(updates, counts)):
                buffer.fold(position % shards, flatten_weights(update), count)
            assert_flat_equal(
                buffer.commit(), flatten_weights(fedavg(updates, counts))
            )

    def test_polynomial_staleness_downweights(self):
        fresh_update = np.full(4, 1.0)
        stale_update = np.full(4, 3.0)
        buffer = BufferedAggregator(
            4, BufferConfig(size=2, staleness="polynomial", exponent=1.0)
        )
        buffer.fold(0, fresh_update, 1, staleness=0)  # weight 1
        buffer.fold(0, stale_update, 1, staleness=1)  # weight 0.5
        committed = buffer.commit()
        expected = (1.0 * 1.0 + 0.5 * 3.0) / 1.5
        np.testing.assert_allclose(committed, expected, rtol=1e-15)

    def test_weighted_fold_matches_fsum_reference(self):
        rng = np.random.default_rng(7)
        vectors = [rng.normal(size=6) * 10.0 ** rng.integers(-4, 5)
                   for _ in range(9)]
        counts = [int(c) for c in rng.integers(1, 40, size=9)]
        stalenesses = [int(s) for s in rng.integers(0, 5, size=9)]
        config = BufferConfig(size=9, staleness="polynomial", exponent=0.7)
        buffer = BufferedAggregator(6, config)
        for i, vector in enumerate(vectors):
            buffer.fold(0, vector, counts[i], staleness=stalenesses[i])
        committed = buffer.commit()
        contributions = [
            config.weight(stalenesses[i]) * float(counts[i]) for i in range(9)
        ]
        denominator = math.fsum(contributions)
        for j in range(6):
            numerator = math.fsum(
                contributions[i] * vectors[i][j] for i in range(9)
            )
            assert committed[j] == numerator / denominator


class TestRobustCommit:
    def test_median_matches_apply_rule_on_sorted_rows(self):
        updates = [make_flat(i) for i in range(5)]
        buffer = BufferedAggregator(
            SIZE,
            BufferConfig(size=5),
            ShardingConfig(num_shards=2, track_memory=False),
            rule="median",
        )
        # fold in scrambled arrival order with explicit dispatch sort keys
        order = [3, 0, 4, 1, 2]
        for arrival, position in enumerate(order):
            buffer.fold(
                arrival % 2, updates[position], 1, sort_key=position
            )
        expected = apply_rule("median", updates)
        np.testing.assert_array_equal(buffer.commit(), expected)

    def test_duplicate_sort_keys_rejected(self):
        buffer = BufferedAggregator(SIZE, BufferConfig(size=2), rule="median")
        buffer.fold(0, make_flat(1), 1, sort_key=5)
        buffer.fold(0, make_flat(2), 1, sort_key=5)
        with pytest.raises(ValueError, match="sort keys must be unique"):
            buffer.commit()


class TestPartials:
    def test_fedavg_partials_are_shard_partials(self):
        updates = [make_flat(i) for i in range(4)]
        buffer = BufferedAggregator(
            SIZE,
            BufferConfig(size=4),
            ShardingConfig(num_shards=3, track_memory=False),
        )
        buffer.fold(0, updates[0], 2)
        buffer.fold(2, updates[1], 3)
        partials = buffer.partials()
        assert [p.shard_id for p in partials] == [0, 2]
        assert all(isinstance(p, ShardPartial) for p in partials)
        assert partials[0].total_samples == 2
        assert all(p.folds == 1 for p in partials)

    def test_robust_partials_are_row_batches(self):
        updates = [make_flat(i) for i in range(3)]
        buffer = BufferedAggregator(
            SIZE,
            BufferConfig(size=3),
            ShardingConfig(num_shards=2, track_memory=False),
            rule="krum",
        )
        for position, update in enumerate(updates):
            buffer.fold(position % 2, update, 1, sort_key=position)
        partials = buffer.partials()
        assert all(isinstance(p, RobustShardPartial) for p in partials)
        assert sum(p.count for p in partials) == 3

    def test_peak_bytes_accounts_live_state(self):
        updates = [make_flat(i) for i in range(3)]
        buffer = BufferedAggregator(SIZE, BufferConfig(size=3))
        assert buffer.peak_bytes == 0
        for update in updates:
            buffer.fold(0, update, 1)
        assert buffer.peak_bytes >= buffer.live_bytes > 0
        buffer.commit()
        assert buffer.peak_bytes > 0  # the high-water mark survives the reset


class TestCheckpointRoundTrip:
    def _folded(self, rule):
        updates = [make_flat(i) for i in range(5)]
        buffer = BufferedAggregator(
            SIZE,
            BufferConfig(size=5),
            ShardingConfig(num_shards=2, track_memory=False),
            rule=rule,
        )
        for position, update in enumerate(updates[:3]):
            buffer.fold(position % 2, update, position + 1, sort_key=position)
        return buffer, updates

    @pytest.mark.parametrize("rule", ["fedavg", "median"])
    def test_mid_window_state_round_trips_bitwise(self, rule):
        buffer, updates = self._folded(rule)
        state = buffer.state_dict()
        restored = BufferedAggregator(
            SIZE,
            BufferConfig(size=5),
            ShardingConfig(num_shards=2, track_memory=False),
            rule=rule,
        )
        restored.load_state(state)
        assert restored.pending == buffer.pending
        for position, update in enumerate(updates[3:], start=3):
            buffer.fold(position % 2, update, position + 1, sort_key=position)
            restored.fold(position % 2, update, position + 1, sort_key=position)
        assert_flat_equal(buffer.commit(), restored.commit())

    def test_state_is_json_safe(self):
        import json

        buffer, _ = self._folded("fedavg")
        encoded = json.dumps(buffer.state_dict(), sort_keys=True)
        assert json.loads(encoded)["pending"] == 3

    def test_rule_mismatch_rejected(self):
        buffer, _ = self._folded("fedavg")
        other = BufferedAggregator(SIZE, BufferConfig(size=5), rule="median")
        with pytest.raises(ValueError, match="checkpointed rule"):
            other.load_state(buffer.state_dict())

    def test_shard_count_mismatch_rejected(self):
        buffer, _ = self._folded("fedavg")
        other = BufferedAggregator(
            SIZE,
            BufferConfig(size=5),
            ShardingConfig(num_shards=4, track_memory=False),
        )
        with pytest.raises(ValueError, match="shard count"):
            other.load_state(buffer.state_dict())
