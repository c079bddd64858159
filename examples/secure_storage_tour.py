#!/usr/bin/env python
"""Tour of the TrustZone substrate: storage, attestation, trusted I/O.

Walks through the OP-TEE-style services GradSec builds on (§7.3):

* secure storage with the SSK → TSK → FEK key hierarchy, including what a
  tampering attacker sees;
* remote attestation (challenge / quote / verify, replay rejection);
* the trusted I/O path carrying model weights into the enclave as
  ciphertext, and the shielded buffer refusing normal-world reads.

Run:  python examples/secure_storage_tour.py
"""

import numpy as np

from repro.nn import lenet5
from repro.tee import (
    AttestationDevice,
    AttestationError,
    AttestationVerifier,
    IntegrityError,
    SecureMemoryPool,
    SecureStorage,
    SecureWorldViolation,
    TrustedApplication,
    TrustedIOPath,
    secure_world,
)


def storage_demo() -> None:
    print("=" * 60)
    print("1. Secure storage (SSK -> TSK -> FEK)")
    print("=" * 60)
    storage = SecureStorage()
    ta_uuid = "gradsec-ta"
    storage.put(ta_uuid, "training-data", b"user photos ...")
    print("stored 'training-data'; backend sees only ciphertext:")
    raw = storage.backend.get(SecureStorage._key(ta_uuid, "training-data"))
    print(f"  first bytes: {raw[:24]!r}")
    print(f"  decrypted via TA key: {storage.get(ta_uuid, 'training-data')!r}")

    tampered = bytearray(raw)
    tampered[-1] ^= 0xFF
    storage.backend.put(SecureStorage._key(ta_uuid, "training-data"), bytes(tampered))
    try:
        storage.get(ta_uuid, "training-data")
    except IntegrityError as exc:
        print(f"  bit-flip detected: {exc}")


def attestation_demo() -> None:
    print("\n" + "=" * 60)
    print("2. Remote attestation")
    print("=" * 60)
    ta = TrustedApplication("gradsec")
    device = AttestationDevice("pi-3b")
    verifier = AttestationVerifier()
    verifier.register_device("pi-3b", device.key)
    verifier.allow_measurement(ta.measurement())

    nonce = verifier.challenge("pi-3b")
    quote = device.quote(ta, nonce)
    print(f"measurement {quote.measurement[:16]}… verified: {verifier.verify(quote)}")
    try:
        verifier.verify(quote)  # replay
    except AttestationError as exc:
        print(f"replayed quote rejected: {exc}")


def iopath_demo() -> None:
    print("\n" + "=" * 60)
    print("3. Trusted I/O path + shielded buffers")
    print("=" * 60)
    model = lenet5(num_classes=10, scale=0.5)
    iopath = TrustedIOPath()
    pool = SecureMemoryPool()

    sealed = iopath.seal([model.layer(2).get_weights()])
    print(f"L2 weights sealed for transport: {len(sealed)} bytes of ciphertext")

    with secure_world():
        buffers = iopath.unseal_to_enclave(sealed, pool, model.dtype)
        weight = buffers[(0, "weight")]
        print(f"inside enclave: {weight!r}")
    print(f"secure memory in use: {pool.used_bytes / 1024:.1f} KiB")

    try:
        weight.read()
    except SecureWorldViolation as exc:
        print(f"normal-world read blocked: {exc}")

    with secure_world():
        values = weight.read()
    print(f"secure-world read OK: weight[0,0,0,:3] = {np.round(values[0,0,0,:3], 4)}")


if __name__ == "__main__":
    storage_demo()
    attestation_demo()
    iopath_demo()
