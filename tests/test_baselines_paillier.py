"""Tests for the Paillier cryptosystem (BatchCrypt's substrate)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.paillier import (
    PaillierPublicKey,
    _is_probable_prime,
    generate_keypair,
)

settings.register_profile("ci", max_examples=15, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(256)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 101, 7919):
            assert _is_probable_prime(p)

    def test_small_composites(self):
        for c in (1, 4, 100, 561, 7917):  # 561 is a Carmichael number
            assert not _is_probable_prime(c)


class TestPaillier:
    def test_roundtrip(self, keypair):
        public, private = keypair
        assert private.decrypt(public.encrypt(42)) == 42

    def test_zero_and_max(self, keypair):
        public, private = keypair
        assert private.decrypt(public.encrypt(0)) == 0
        assert private.decrypt(public.encrypt(public.n - 1)) == public.n - 1

    def test_out_of_range_rejected(self, keypair):
        public, _ = keypair
        with pytest.raises(ValueError):
            public.encrypt(public.n)
        with pytest.raises(ValueError):
            public.encrypt(-1)

    def test_additive_homomorphism(self, keypair):
        public, private = keypair
        c = public.add_many([public.encrypt(1000), public.encrypt(2345)])
        assert private.decrypt(c) == 3345

    def test_add_many(self, keypair):
        public, private = keypair
        cts = [public.encrypt(i) for i in range(10)]
        assert private.decrypt(public.add_many(cts)) == 45

    def test_encryption_is_randomised(self, keypair):
        public, _ = keypair
        assert public.encrypt(5) != public.encrypt(5)

    def test_ciphertext_range_checked_on_decrypt(self, keypair):
        public, private = keypair
        with pytest.raises(ValueError):
            private.decrypt(0)

    def test_tiny_keys_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(32)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_homomorphism_property(self, a, b):
        public, private = _CACHED
        c = public.add_many([public.encrypt(a), public.encrypt(b)])
        assert private.decrypt(c) == a + b


_CACHED = generate_keypair(192)
