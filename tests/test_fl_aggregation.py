"""Tests for FedAvg and update merging."""

import numpy as np
import pytest

from repro.fl import (
    CompensatedAccumulator,
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

    def test_component_count_stays_bounded(self):
        acc = CompensatedAccumulator(4)
        rng = np.random.default_rng(3)
        for _ in range(500):
            acc.add(10.0 ** float(rng.integers(-10, 11)) * rng.normal(size=4))
        assert len(acc.components) <= 64


class ReferenceAccumulator:
    """The allocating TwoSum-per-component ``add`` the in-place one replaced,
    kept (with its ``value``) as the bit-for-bit oracle."""

    def __init__(self, size):
        self.size, self.components, self.folds = size, [], 0

    def add(self, values):
        x = np.array(values, dtype=np.float64)
        for i, c in enumerate(self.components):
            s = c + x
            bb = s - c
            self.components[i], x = s, (c - (s - bb)) + (x - bb)
        if np.any(x):
            self.components.append(x)
            if len(self.components) > 64:
                raise OverflowError("compensated expansion grew unboundedly")
        self.components = [c for c in self.components if np.any(c)]
        self.folds += 1

    def value(self):
        parts = [c.copy() for c in self.components] or [np.zeros(self.size)]
        for _ in range(len(parts) + 2):
            before = [c.tobytes() for c in parts]
            for i in range(len(parts) - 1, 0, -1):
                s = parts[i - 1] + parts[i]
                bb = s - parts[i - 1]
                err = (parts[i - 1] - (s - bb)) + (parts[i] - bb)
                parts[i - 1], parts[i] = s, err
            if [c.tobytes() for c in parts] == before:
                break
        return parts[0]


def hostile_stream(seed, size, length=48):
    """Addends that stress every branch: exact cancellations (``x`` then
    ``-x``), subnormals, signed zeros, all-zero vectors, 1e+-300 mixes."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(length):
        kind = int(rng.integers(0, 7))
        if kind == 0 and stream:
            x = -stream[-int(rng.integers(1, min(3, len(stream)) + 1))]
        elif kind == 1:
            x = 5e-324 * rng.integers(-9, 10, size=size)
        elif kind == 2:
            x = rng.choice([0.0, -0.0], size=size)
        elif kind == 3:
            x = 10.0 ** rng.choice([-300.0, 300.0], size=size) * rng.normal(size=size)
        elif kind == 4:
            x = np.where(rng.random(size) < 0.5, 0.0, rng.normal(size=size))
        else:
            x = 10.0 ** float(rng.integers(-12, 13)) * rng.normal(size=size)
        stream.append(np.asarray(x, dtype=np.float64))
    return stream


def assert_same_expansion(acc, oracle):
    got, want = acc.components, oracle.components
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
    assert len(got) == len(want)
    assert acc.live_bytes == sum(c.nbytes for c in want)
    assert acc.folds == oracle.folds
    assert acc.value().tobytes() == oracle.value().tobytes()


class TestInPlaceAdd:
    @pytest.mark.parametrize("size", [1, 2, 250])
    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_the_allocating_oracle_after_every_add(self, size, seed):
        acc, oracle = CompensatedAccumulator(size), ReferenceAccumulator(size)
        for x in hostile_stream(seed, size):
            acc.add(x)
            oracle.add(x)
            assert_same_expansion(acc, oracle)

    @pytest.mark.parametrize("size", [1, 2, 250])
    def test_components_cancelled_to_zero_are_pruned_like_the_oracle(self, size):
        rng = np.random.default_rng(size)
        big, small = 1e12 * rng.normal(size=size), 1e-12 * rng.normal(size=size)
        acc, oracle = CompensatedAccumulator(size), ReferenceAccumulator(size)
        counts = []
        for x in (big, -big, big, small, -big, -small, small, big, -small, -big):
            acc.add(x)
            oracle.add(x)
            assert_same_expansion(acc, oracle)
            counts.append(len(acc.components))
        assert counts == [1, 0, 1, 2, 1, 0, 1, 2, 1, 0]

    @pytest.mark.parametrize("seed", range(6))
    def test_float_carried_scalar_expansion_equals_the_size_one_oracle(self, seed):
        from repro.fl.aggregation import _ScalarAccumulator

        acc, oracle = _ScalarAccumulator(), ReferenceAccumulator(1)
        for x in hostile_stream(seed, 1, length=96):
            acc.add(float(x[0]))
            oracle.add(x)
            assert_same_expansion(acc, oracle)

    def test_merge_equals_the_oracle_fed_the_same_components(self):
        from repro.fl.aggregation import _ScalarAccumulator

        for cls, size, unwrap in (
            (lambda: CompensatedAccumulator(3), 3, lambda x: x),
            (_ScalarAccumulator, 1, lambda x: float(x[0])),
        ):
            left, right, oracle = cls(), cls(), ReferenceAccumulator(size)
            stream = hostile_stream(9, size, length=30)
            for x in stream[:15]:
                left.add(unwrap(x))
                oracle.add(x)
            for x in stream[15:]:
                right.add(unwrap(x))
            for component in right.components:
                oracle.add(component)
            left.merge(right)
            oracle.folds = len(stream)
            assert_same_expansion(left, oracle)

    def test_addend_is_never_mutated(self):
        acc = CompensatedAccumulator(5)
        for x in hostile_stream(2, 5):
            kept = x.copy()
            acc.add(x)
            assert x.tobytes() == kept.tobytes()

    def test_handed_out_arrays_do_not_alias_live_state(self):
        acc = CompensatedAccumulator(5)
        stream = hostile_stream(4, 5)
        for x in stream[:10]:
            acc.add(x)
        snapshot, value = acc.components, acc.value()
        frozen = [c.tobytes() for c in snapshot], value.tobytes()
        for x in stream[10:]:
            acc.add(x)
        assert ([c.tobytes() for c in snapshot], value.tobytes()) == frozen
        # ... and writing into a handed-out array cannot reach the sum.
        before = acc.value().tobytes()
        for component in acc.components:
            component[:] = 123.0
        assert acc.value().tobytes() == before

    def test_scratch_is_not_counted_in_live_bytes(self):
        acc = CompensatedAccumulator(7)
        acc.add(np.ones(7))
        acc.add(np.full(7, 1e-30))
        assert acc.live_bytes == 8 * 7 * len(acc.components) == 112

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_non_finite_addends_end_in_the_same_overflow_error(self, poison):
        from repro.fl.aggregation import _ScalarAccumulator

        def adds_until_overflow(add):
            add(np.array([1.5]))
            add(np.array([poison]))
            for extra in range(80):
                try:
                    add(np.array([float(extra)]))
                except OverflowError:
                    return extra
            return None

        acc, scalar = CompensatedAccumulator(1), _ScalarAccumulator()
        expected = adds_until_overflow(ReferenceAccumulator(1).add)
        assert expected is not None
        assert adds_until_overflow(acc.add) == expected
        assert adds_until_overflow(lambda x: scalar.add(float(x[0]))) == expected


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
