"""Tests for the trusted I/O path (sealed weight transport)."""

import numpy as np
import pytest

from repro.tee import (
    SecureMemoryPool,
    SecureWorldViolation,
    TrustedIOPath,
    secure_world,
)
from repro.tee.crypto import CryptoError


def weights():
    return [
        {"weight": np.arange(6.0).reshape(2, 3), "bias": np.zeros(2)},
        {},
        {"weight": np.ones((3, 3))},
    ]


class TestTrustedIOPath:
    def test_server_roundtrip(self):
        path = TrustedIOPath()
        restored = path.unseal_remote(path.seal(weights()))
        np.testing.assert_array_equal(restored[0]["weight"], weights()[0]["weight"])
        assert restored[1] == {}

    def test_normal_world_cannot_unseal_to_enclave(self):
        path = TrustedIOPath()
        pool = SecureMemoryPool()
        blob = path.seal(weights())
        with pytest.raises(SecureWorldViolation):
            path.unseal_to_enclave(blob, pool, np.float64)

    def test_enclave_provisioning_creates_shielded_buffers(self):
        path = TrustedIOPath()
        pool = SecureMemoryPool()
        blob = path.seal(weights())
        with secure_world():
            buffers = path.unseal_to_enclave(blob, pool, np.float32)
            assert set(buffers) == {(0, "weight"), (0, "bias"), (2, "weight")}
            received = buffers[(0, "weight")].read()
            assert received.dtype == np.float32  # the receiving model's dtype
            np.testing.assert_array_equal(received, weights()[0]["weight"])
        # Charged as float32 (4 bytes/element): 6 + 2 + 9 elements.
        assert pool.used_bytes == 4 * (6 + 2 + 9)

    def test_enclave_export_roundtrip(self):
        path = TrustedIOPath()
        pool = SecureMemoryPool()
        blob = path.seal(weights())
        with secure_world():
            buffers = path.unseal_to_enclave(blob, pool, np.float64)
            out = path.seal_from_enclave(buffers, n_layers=3)
        restored = path.unseal_remote(out)
        np.testing.assert_array_equal(restored[2]["weight"], np.ones((3, 3)))

    def test_wrong_session_key_fails(self):
        a, b = TrustedIOPath(), TrustedIOPath()
        with pytest.raises(CryptoError):
            b.unseal_remote(a.seal(weights()))

    def test_shared_key_interoperates(self):
        key = b"k" * 32
        a, b = TrustedIOPath(key), TrustedIOPath(key)
        restored = b.unseal_remote(a.seal(weights()))
        np.testing.assert_array_equal(restored[0]["bias"], np.zeros(2))

    def test_blob_is_opaque(self):
        """The sealed blob must not contain the raw weight bytes."""
        path = TrustedIOPath()
        w = [{"weight": np.full((4, 4), 7.25)}]
        blob = path.seal(w)
        assert np.full((4, 4), 7.25).tobytes() not in blob
