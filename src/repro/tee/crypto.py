"""Simulator cryptography.

The real OP-TEE uses AES-GCM and hardware-fused keys.  Offline and without
third-party crypto libraries, the simulator builds an authenticated stream
cipher from the standard library:

* keystream: the payload is cut into :data:`CHUNK_BYTES` chunks and chunk
  ``i`` is XORed with ``SHAKE256(enc_key || nonce || u64_be(i))`` — one XOF
  call and one vectorised XOR per chunk, a working set of one chunk;
* an encrypt-then-MAC tag ``HMAC(mac_key, nonce || ciphertext)``, verified
  before any keystream is produced;
* ``enc_key``/``mac_key`` derived under labels naming this construction, so
  a blob sealed by any other (e.g. the HMAC-counter mode this replaced)
  fails the tag check rather than decrypting to garbage.

Non-goals: resisting real cryptanalysis, constant-time operation beyond the
tag compare, reading blobs sealed by earlier versions — it exists so that the
secure-storage and trusted-I/O *protocols* (key hierarchy, nonce handling,
tamper detection, atomic updates) are faithfully exercised end to end.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

import numpy as np

__all__ = ["derive_key", "encrypt", "decrypt", "random_key", "SealedBlob", "CryptoError"]

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32
CHUNK_BYTES = 1 << 20  # keystream granularity; bounds the working set
_ENC_LABEL = b"shake256-ctr-v2/enc"
_MAC_LABEL = b"shake256-ctr-v2/mac"


class CryptoError(Exception):
    """Decryption failed (bad key or tampered ciphertext)."""


@dataclass(frozen=True)
class SealedBlob:
    """An encrypted, authenticated payload."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SealedBlob":
        if len(blob) < NONCE_BYTES + TAG_BYTES:
            raise CryptoError("sealed blob too short")
        return cls(
            nonce=blob[:NONCE_BYTES],
            tag=blob[NONCE_BYTES : NONCE_BYTES + TAG_BYTES],
            ciphertext=blob[NONCE_BYTES + TAG_BYTES :],
        )


def random_key(rng_bytes: int = KEY_BYTES) -> bytes:
    """Fresh random key (e.g. a per-object File Encryption Key)."""
    return secrets.token_bytes(rng_bytes)


def derive_key(parent: bytes, *context: bytes) -> bytes:
    """HKDF-style one-step key derivation: ``HMAC(parent, ctx0 || 0x1f || ...)``.

    Used for the paper's key hierarchy: the Trusted-Application Storage Key
    (TSK) is derived from the per-device Secure Storage Key (SSK) and the
    TA's UUID (§7.3).
    """
    info = b"\x1f".join(context)
    return hmac.new(parent, info, hashlib.sha256).digest()


def _tag(key: bytes, nonce: bytes, ciphertext) -> bytes:
    mac = hmac.new(derive_key(key, _MAC_LABEL), nonce, hashlib.sha256)
    mac.update(ciphertext)
    return mac.digest()


def _xor_keystream(key: bytes, nonce: bytes, data) -> bytes:
    """``data`` XOR the keystream for ``(key, nonce)``, chunk by chunk."""
    prefix = derive_key(key, _ENC_LABEL) + nonce
    source = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(source.size, dtype=np.uint8)
    for index, start in enumerate(range(0, source.size, CHUNK_BYTES)):
        chunk = source[start : start + CHUNK_BYTES]
        xof = hashlib.shake_256(prefix + index.to_bytes(8, "big"))
        stream = np.frombuffer(xof.digest(chunk.size), dtype=np.uint8)
        np.bitwise_xor(chunk, stream, out=out[start : start + chunk.size])
    return out.tobytes()


def encrypt(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> SealedBlob:
    """Authenticated encryption (chunked XOF keystream + encrypt-then-MAC)."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes")
    nonce = secrets.token_bytes(NONCE_BYTES) if nonce is None else nonce
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
    ciphertext = _xor_keystream(key, nonce, plaintext)
    return SealedBlob(nonce=nonce, ciphertext=ciphertext, tag=_tag(key, nonce, ciphertext))


def decrypt(key: bytes, blob: SealedBlob) -> bytes:
    """Verify and decrypt; raises :class:`CryptoError` on any tampering."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes")
    if not hmac.compare_digest(_tag(key, blob.nonce, blob.ciphertext), blob.tag):
        raise CryptoError("authentication tag mismatch (tampered or wrong key)")
    return _xor_keystream(key, blob.nonce, blob.ciphertext)
