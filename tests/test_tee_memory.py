"""Tests for the secure memory pool and shielded buffers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tee import (
    SecureMemoryExhausted,
    SecureMemoryPool,
    SecureWorldViolation,
    ShieldedBuffer,
    secure_world,
)

settings.register_profile("ci", max_examples=30, deadline=None)
settings.load_profile("ci")


class TestSecureMemoryPool:
    def test_allocate_and_release(self):
        pool = SecureMemoryPool(1000)
        handle = pool.allocate(400)
        assert pool.used_bytes == 400
        pool.release(handle)
        assert pool.used_bytes == 0

    def test_exhaustion_raises(self):
        pool = SecureMemoryPool(100)
        pool.allocate(80)
        with pytest.raises(SecureMemoryExhausted, match="free"):
            pool.allocate(30)

    def test_peak_watermark(self):
        pool = SecureMemoryPool(1000)
        a = pool.allocate(600)
        pool.release(a)
        pool.allocate(100)
        assert pool.peak_bytes == 600

    def test_reset_peak(self):
        pool = SecureMemoryPool(1000)
        a = pool.allocate(500)
        pool.release(a)
        pool.reset_peak()
        assert pool.peak_bytes == 0

    def test_double_release_raises(self):
        pool = SecureMemoryPool(100)
        h = pool.allocate(10)
        pool.release(h)
        with pytest.raises(KeyError):
            pool.release(h)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            SecureMemoryPool(100).allocate(-1)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            SecureMemoryPool(0)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=20))
    def test_accounting_invariant(self, sizes):
        """used == sum(live); peak >= used; free + used == capacity."""
        pool = SecureMemoryPool(10_000)
        handles = []
        for size in sizes:
            handles.append((pool.allocate(size), size))
        live = sum(s for _, s in handles)
        assert pool.used_bytes == live
        assert pool.free_bytes == 10_000 - live
        for h, s in handles[::2]:
            pool.release(h)
            live -= s
        assert pool.used_bytes == live
        assert pool.peak_bytes >= pool.used_bytes


class TestShieldedBuffer:
    def setup_method(self):
        self.pool = SecureMemoryPool(1 << 20)
        self.data = np.arange(6.0).reshape(2, 3)

    def test_normal_world_read_raises(self):
        buf = ShieldedBuffer(self.pool, self.data, label="w")
        with pytest.raises(SecureWorldViolation, match="secure world"):
            buf.read()

    def test_normal_world_array_coercion_raises(self):
        buf = ShieldedBuffer(self.pool, self.data)
        with pytest.raises(SecureWorldViolation):
            np.asarray(buf)

    def test_secure_world_read_returns_copy(self):
        buf = ShieldedBuffer(self.pool, self.data)
        with secure_world():
            out = buf.read()
            out[:] = -1
            np.testing.assert_array_equal(buf.read(), self.data)

    def test_release_frees_pool(self):
        buf = ShieldedBuffer(self.pool, self.data)
        used = self.pool.used_bytes
        buf.release()
        assert self.pool.used_bytes == used - self.data.nbytes

    def test_release_is_idempotent(self):
        buf = ShieldedBuffer(self.pool, self.data)
        buf.release()
        buf.release()  # no error

    def test_read_after_release_raises(self):
        buf = ShieldedBuffer(self.pool, self.data)
        buf.release()
        with secure_world():
            with pytest.raises(SecureWorldViolation, match="released"):
                buf.read()

    def test_nbytes_override_charges_pool(self):
        buf = ShieldedBuffer(self.pool, self.data, nbytes_override=24)
        assert buf.nbytes == 24
        assert self.pool.used_bytes == 24

    def test_repr_does_not_leak_contents(self):
        buf = ShieldedBuffer(self.pool, self.data, label="secret")
        text = repr(buf)
        assert "secret" in text  # the label
        assert "0." not in text  # not the payload

    def test_allocation_respects_capacity(self):
        tiny = SecureMemoryPool(8)
        with pytest.raises(SecureMemoryExhausted):
            ShieldedBuffer(tiny, np.zeros(100))
