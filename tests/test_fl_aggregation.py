"""Tests for FedAvg and update merging."""

import numpy as np
import pytest

from repro.fl import (
    CompensatedAccumulator,
    StreamingWeightedSum,
    fedavg,
    merge_plain_and_sealed,
)


def make_weights(value, layers=2):
    return [{"weight": np.full((2, 2), float(value))} for _ in range(layers)]


class TestWeightedAverage:
    def test_uniform_average(self):
        out = fedavg([make_weights(1), make_weights(3)])
        np.testing.assert_allclose(out[0]["weight"], 2.0)

    def test_sample_weighted(self):
        out = fedavg([make_weights(0), make_weights(10)], [1, 3])
        np.testing.assert_allclose(out[0]["weight"], 7.5)

    def test_single_client_identity(self):
        out = fedavg([make_weights(5)])
        np.testing.assert_allclose(out[0]["weight"], 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_misaligned_counts_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fedavg([make_weights(1)], [1, 2])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fedavg([make_weights(1)], [0])

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layer count"):
            fedavg([make_weights(1, layers=2), make_weights(1, layers=3)])

    def test_preserves_all_param_names(self):
        a = [{"weight": np.ones((2,)), "bias": np.zeros(1)}]
        b = [{"weight": np.zeros((2,)), "bias": np.ones(1)}]
        out = fedavg([a, b])
        assert set(out[0]) == {"weight", "bias"}
        np.testing.assert_allclose(out[0]["bias"], 0.5)


class TestExactAccumulation:
    def test_catastrophic_cancellation_is_exact(self):
        acc = CompensatedAccumulator(1)
        for value in (1e16, 1.0, -1e16, 1e-30, 2.0, -3.0):
            acc.add(np.array([value]))
        assert acc.value()[0] == 1e-30

    def test_fold_order_cannot_change_the_sum(self):
        rng = np.random.default_rng(11)
        values = 10.0 ** rng.integers(-8, 9, size=64).astype(
            float
        ) * rng.normal(size=64)
        forward = CompensatedAccumulator(1)
        for v in values:
            forward.add(np.array([v]))
        backward = CompensatedAccumulator(1)
        for v in values[::-1]:
            backward.add(np.array([v]))
        assert forward.value()[0] == backward.value()[0]

    def test_streaming_sum_merge_matches_single_stream(self):
        template = make_weights(0)
        updates = [make_weights(i * 0.7 + 0.1) for i in range(8)]
        counts = [1, 3, 2, 8, 1, 5, 2, 4]
        single = StreamingWeightedSum(template)
        for update, count in zip(updates, counts):
            single.fold(update, count)
        left = StreamingWeightedSum(template)
        right = StreamingWeightedSum(template)
        for i, (update, count) in enumerate(zip(updates, counts)):
            (left if i % 2 else right).fold(update, count)
        left.merge(right)
        for a, b in zip(single.finalize(), left.finalize()):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_component_count_stays_bounded(self):
        acc = CompensatedAccumulator(4)
        rng = np.random.default_rng(3)
        for _ in range(500):
            acc.add(10.0 ** float(rng.integers(-10, 11)) * rng.normal(size=4))
        assert acc.num_components <= 64


class TestMergePlainAndSealed:
    def test_merge(self):
        plain = [{"weight": np.ones(2)}, {}]
        sealed = [{}, {"weight": np.zeros(2)}]
        merged = merge_plain_and_sealed(plain, sealed)
        np.testing.assert_array_equal(merged[0]["weight"], np.ones(2))
        np.testing.assert_array_equal(merged[1]["weight"], np.zeros(2))

    def test_overlap_rejected(self):
        plain = [{"weight": np.ones(2)}]
        sealed = [{"weight": np.zeros(2)}]
        with pytest.raises(ValueError, match="both"):
            merge_plain_and_sealed(plain, sealed)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            merge_plain_and_sealed([{}], [{}, {}])
