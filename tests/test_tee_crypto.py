"""Tests for the simulator's authenticated encryption and key derivation."""

import hashlib
import hmac
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.tee import crypto
from repro.tee.crypto import CryptoError, SealedBlob, decrypt, derive_key, encrypt, random_key

settings.register_profile("ci", max_examples=30, deadline=None)
settings.load_profile("ci")

CHUNK = crypto.CHUNK_BYTES
KAT_KEY = bytes(range(32))
KAT_NONCE = bytes(range(100, 116))


def reference_seal(key, nonce, plaintext):
    """Per-byte oracle of the construction ``crypto`` documents."""
    enc_key = hmac.new(key, b"shake256-ctr-v2/enc", hashlib.sha256).digest()
    mac_key = hmac.new(key, b"shake256-ctr-v2/mac", hashlib.sha256).digest()
    out = bytearray()
    for index in range((len(plaintext) + CHUNK - 1) // CHUNK):
        chunk = plaintext[index * CHUNK : (index + 1) * CHUNK]
        xof = hashlib.shake_256(enc_key + nonce + index.to_bytes(8, "big"))
        out.extend(p ^ s for p, s in zip(chunk, xof.digest(len(chunk))))
    tag = hmac.new(mac_key, nonce + bytes(out), hashlib.sha256).digest()
    return nonce + tag + bytes(out)


def legacy_seal(key, nonce, plaintext):
    """What the pre-SHAKE code wrote: HMAC-counter keystream, ``enc``/``mac`` labels."""
    enc_key = hmac.new(key, b"enc", hashlib.sha256).digest()
    mac_key = hmac.new(key, b"mac", hashlib.sha256).digest()
    blocks = (len(plaintext) + 31) // 32
    stream = b"".join(
        hmac.new(enc_key, nonce + i.to_bytes(8, "big"), hashlib.sha256).digest()
        for i in range(blocks)
    )
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(mac_key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + tag + ciphertext


class TestEncryptDecrypt:
    def test_roundtrip(self):
        key = random_key()
        blob = encrypt(key, b"hello enclave")
        assert decrypt(key, blob) == b"hello enclave"

    def test_empty_plaintext(self):
        key = random_key()
        assert decrypt(key, encrypt(key, b"")) == b""

    def test_wrong_key_fails(self):
        blob = encrypt(random_key(), b"data")
        with pytest.raises(CryptoError):
            decrypt(random_key(), blob)

    def test_ciphertext_tamper_detected(self):
        key = random_key()
        blob = encrypt(key, b"gradient bytes")
        flipped = bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:]
        with pytest.raises(CryptoError, match="tag"):
            decrypt(key, SealedBlob(blob.nonce, flipped, blob.tag))

    def test_nonce_tamper_detected(self):
        key = random_key()
        blob = encrypt(key, b"x" * 64)
        bad_nonce = bytes(16)
        with pytest.raises(CryptoError):
            decrypt(key, SealedBlob(bad_nonce, blob.ciphertext, blob.tag))

    def test_fresh_nonce_per_encryption(self):
        key = random_key()
        a = encrypt(key, b"same")
        b = encrypt(key, b"same")
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_explicit_nonce_is_deterministic(self):
        key = random_key()
        nonce = bytes(range(16))
        assert (
            encrypt(key, b"abc", nonce).ciphertext
            == encrypt(key, b"abc", nonce).ciphertext
        )

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            encrypt(b"short", b"data")

    def test_blob_serialisation_roundtrip(self):
        key = random_key()
        blob = encrypt(key, b"payload")
        restored = SealedBlob.from_bytes(blob.to_bytes())
        assert decrypt(key, restored) == b"payload"

    def test_truncated_blob_rejected(self):
        with pytest.raises(CryptoError, match="short"):
            SealedBlob.from_bytes(b"tiny")

    @given(st.binary(max_size=512))
    def test_roundtrip_property(self, payload):
        key = derive_key(b"k" * 32, b"test")
        assert decrypt(key, encrypt(key, payload)) == payload


class TestConstruction:
    """Pins the sealed format: changing it must be a deliberate act."""

    @pytest.mark.parametrize(
        "plaintext, expected_hex",
        [
            (
                b"",
                "6465666768696a6b6c6d6e6f70717273"
                "fcfb585ddd87d628ad9d99663bf35eff85cecc0d872c02ee51524b06de26142f",
            ),
            (
                b"GradSec",
                "6465666768696a6b6c6d6e6f70717273"
                "c3c294ad4bea8b50aab77c2d09aae78562447be609d688fffbc68c201ceb9b64"
                "e584e0a9b11fa4",
            ),
        ],
    )
    def test_known_answer(self, plaintext, expected_hex):
        sealed = encrypt(KAT_KEY, plaintext, KAT_NONCE).to_bytes()
        assert sealed.hex() == expected_hex
        assert sealed == reference_seal(KAT_KEY, KAT_NONCE, plaintext)

    def test_known_answer_across_chunk_boundary(self):
        plaintext = bytes(i % 251 for i in range(CHUNK + 1))
        sealed = encrypt(KAT_KEY, plaintext, KAT_NONCE).to_bytes()
        assert hashlib.sha256(sealed).hexdigest() == (
            "76b872d01f6e43a58efcb57a3b862910d7064687bc8f00099feb4e7c4619e490"
        )

    @pytest.mark.parametrize("size", [0, 7, 100])
    def test_legacy_blob_fails_the_tag_check(self, size):
        """Old state must be refused at the MAC, never decrypted to garbage."""
        old = legacy_seal(KAT_KEY, KAT_NONCE, b"x" * size)
        with pytest.raises(CryptoError, match="tag"):
            decrypt(KAT_KEY, SealedBlob.from_bytes(old))

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_buffer_types_accepted(self, wrap):
        payload = bytes(range(200))
        blob = encrypt(KAT_KEY, wrap(payload), KAT_NONCE)
        assert blob.to_bytes() == encrypt(KAT_KEY, payload, KAT_NONCE).to_bytes()
        assert decrypt(KAT_KEY, blob) == payload

    def test_tag_checked_before_any_keystream(self, monkeypatch):
        blob = encrypt(KAT_KEY, b"payload", KAT_NONCE)
        forged = SealedBlob(blob.nonce, blob.ciphertext, bytes(32))

        def no_keystream(*args):
            raise AssertionError("keystream produced for an unauthenticated blob")

        monkeypatch.setattr(crypto, "_xor_keystream", no_keystream)
        with pytest.raises(CryptoError, match="tag"):
            decrypt(KAT_KEY, forged)

    @pytest.mark.parametrize("operation", ["encrypt", "decrypt"])
    def test_working_set_bounded_by_chunk(self, operation):
        """Input aside, only the output, its ``bytes`` copy and one chunk live."""
        size = 8 << 20
        payload = bytes(size)
        subject = payload if operation == "encrypt" else encrypt(KAT_KEY, payload)
        tracemalloc.start()
        try:
            getattr(crypto, operation)(KAT_KEY, subject)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * size + (4 << 20)


@pytest.mark.property
class TestChunkEdgeProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]),
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=1, max_size=64),
    )
    def test_matches_reference_and_roundtrips(self, size, key, nonce, pattern):
        payload = (pattern * (size // len(pattern) + 1))[:size]
        blob = encrypt(key, payload, nonce)
        assert blob.to_bytes() == reference_seal(key, nonce, payload)
        assert decrypt(key, SealedBlob.from_bytes(blob.to_bytes())) == payload


class TestKeyDerivation:
    def test_deterministic(self):
        parent = b"p" * 32
        assert derive_key(parent, b"a") == derive_key(parent, b"a")

    def test_context_separates(self):
        parent = b"p" * 32
        assert derive_key(parent, b"a") != derive_key(parent, b"b")

    def test_multi_context_not_concat_ambiguous(self):
        parent = b"p" * 32
        assert derive_key(parent, b"ab", b"c") != derive_key(parent, b"a", b"bc")

    def test_output_is_key_sized(self):
        assert len(derive_key(b"p" * 32, b"x")) == crypto.KEY_BYTES
