"""Tests for the BatchCrypt HE-aggregation baseline."""

import numpy as np
import pytest

from repro.baselines import BatchCrypt, QuantizationConfig


@pytest.fixture(scope="module")
def batchcrypt():
    return BatchCrypt(
        QuantizationConfig(value_bits=12, clip=1.0, max_clients=4), key_bits=192
    )


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        config = QuantizationConfig(value_bits=12, clip=1.0)
        values = np.linspace(-1, 1, 101)
        error = np.abs(
            config.dequantize(config.quantize(values)) - values
        ).max()
        assert error <= 1.0 / config.quant_max

    def test_clipping(self):
        config = QuantizationConfig(value_bits=8, clip=0.5)
        out = config.dequantize(config.quantize(np.array([10.0, -10.0])))
        np.testing.assert_allclose(out, [0.5, -0.5])

    def test_guard_bits_cover_client_count(self):
        assert QuantizationConfig(max_clients=8).guard_bits >= 4
        assert QuantizationConfig(max_clients=2).guard_bits >= 2


class TestLaneCodec:
    def test_encode_decode_roundtrip(self, batchcrypt):
        values = np.array([1, -1, 100, -100, 0, 2047, -2048], dtype=np.int64)
        packed = batchcrypt._encode_lanes(values)
        decoded = batchcrypt._decode_lanes(packed, len(values))
        np.testing.assert_array_equal(decoded, values)

    def test_lane_count_positive(self, batchcrypt):
        assert batchcrypt.lanes >= 1


class TestEndToEnd:
    def test_single_vector_roundtrip(self, batchcrypt):
        rng = np.random.default_rng(0)
        vector = rng.normal(0, 0.3, 40)
        agg = batchcrypt.aggregate_plaintext([vector])
        np.testing.assert_allclose(agg, np.clip(vector, -1, 1), atol=2e-3)

    def test_aggregate_equals_sum(self, batchcrypt):
        rng = np.random.default_rng(1)
        vectors = [rng.normal(0, 0.2, 30) for _ in range(4)]
        agg = batchcrypt.aggregate_plaintext(vectors)
        expected = np.sum([np.clip(v, -1, 1) for v in vectors], axis=0)
        np.testing.assert_allclose(agg, expected, atol=5e-3)

    def test_negative_sums_survive_packing(self, batchcrypt):
        vectors = [np.full(5, -0.4), np.full(5, -0.4), np.full(5, -0.1)]
        agg = batchcrypt.aggregate_plaintext(vectors)
        np.testing.assert_allclose(agg, -0.9, atol=5e-3)

    def test_too_many_clients_rejected(self, batchcrypt):
        vectors = [np.zeros(4)] * 5  # max_clients = 4
        with pytest.raises(ValueError, match="guard-bit"):
            batchcrypt.aggregate_plaintext(vectors)

    def test_mismatched_lengths_rejected(self, batchcrypt):
        a = batchcrypt.encrypt_vector(np.zeros(40))
        b = batchcrypt.encrypt_vector(np.zeros(4))
        with pytest.raises(ValueError, match="disagree"):
            batchcrypt.aggregate([a, b])

    def test_server_sees_only_ciphertext(self, batchcrypt):
        """Ciphertexts reveal nothing obviously structural: two encryptions
        of the same vector differ."""
        vector = np.ones(8) * 0.25
        assert batchcrypt.encrypt_vector(vector) != batchcrypt.encrypt_vector(vector)
