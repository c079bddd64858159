"""Trusted I/O path.

§7.3: the FL server must hand the protected layers' weights to the enclave
without the normal world ever seeing the plaintext, and receive the
protected layers' updates the same way.  The simulator models this as an
authenticated-encryption channel whose key is shared between the FL server
and the client's secure world (established after a successful attestation),
with the normal world acting as an opaque relay.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..nn.serialize import weights_from_bytes, weights_to_bytes
from . import crypto
from .memory import SecureMemoryPool, ShieldedBuffer
from .world import require_secure_world

__all__ = ["TrustedIOPath", "SealedWeights"]

SealedWeights = bytes


class TrustedIOPath:
    """One end-to-end secure channel between FL server and client enclave.

    The same object is used on both sides of the (simulated) network; the
    security split is enforced by *where* each method may run:
    ``seal``/``unseal_remote`` model the server, while ``unseal_to_enclave``
    and ``seal_from_enclave`` only execute in the secure world.
    """

    def __init__(self, session_key: bytes | None = None) -> None:
        self.session_key = session_key or crypto.random_key()

    # -- server side ----------------------------------------------------
    def seal(self, weights) -> SealedWeights:
        """Server: encrypt per-layer weights for the client enclave."""
        return crypto.encrypt(self.session_key, weights_to_bytes(weights)).to_bytes()

    def unseal_remote(self, blob: SealedWeights):
        """Server: decrypt an update coming back from the client enclave."""
        return weights_from_bytes(
            crypto.decrypt(self.session_key, crypto.SealedBlob.from_bytes(blob))
        )

    # -- enclave side -----------------------------------------------------
    def unseal_to_enclave(
        self, blob: SealedWeights, pool: SecureMemoryPool, dtype
    ) -> Dict[Tuple[int, str], ShieldedBuffer]:
        """Enclave: decrypt weights straight into shielded buffers.

        Returns a mapping from ``(layer_index, param_name)`` — 0-based layer
        index — to the shielded buffer now holding that parameter, converted
        to ``dtype`` (the receiving model's precision; the server seals its
        own).  Must run in the secure world; the plaintext never exists
        outside it.
        """
        require_secure_world("unsealing weights into the enclave")
        weights = weights_from_bytes(
            crypto.decrypt(self.session_key, crypto.SealedBlob.from_bytes(blob))
        )
        buffers: Dict[Tuple[int, str], ShieldedBuffer] = {}
        for index, layer_weights in enumerate(weights):
            for name, value in layer_weights.items():
                value = np.asarray(value, dtype=dtype)
                buffers[(index, name)] = ShieldedBuffer(
                    pool,
                    value,
                    label=f"layer{index}.{name}",
                    nbytes_override=value.size * 4,  # device stores float32
                )
        return buffers

    def seal_from_enclave(
        self, buffers: Dict[Tuple[int, str], ShieldedBuffer], n_layers: int
    ) -> SealedWeights:
        """Enclave: seal shielded parameters for transmission to the server."""
        require_secure_world("sealing weights from the enclave")
        weights = [dict() for _ in range(n_layers)]
        for (index, name), buffer in buffers.items():
            weights[index][name] = buffer.read()
        return crypto.encrypt(self.session_key, weights_to_bytes(weights)).to_bytes()
