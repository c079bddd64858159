"""BatchCrypt [55] — efficient homomorphic encryption for cross-silo FL.

The paper's related-work HE baseline. Instead of encrypting each gradient
with full precision, BatchCrypt:

1. **clips** gradients to a symmetric range;
2. **quantizes** each value to a small signed integer;
3. **packs** a batch of quantized values into one long integer, each lane
   padded with guard bits so that homomorphically adding up to
   ``max_clients`` ciphertexts cannot overflow a lane;
4. encrypts the packed integer **once** with Paillier.

The server adds ciphertexts lane-wise "for free" via Paillier's additive
homomorphism; clients decrypt and unpack the aggregate. This module
implements the quantization, two's-complement lane encoding, packing, and
the end-to-end aggregate pipeline, and is exercised by the baseline
comparison benchmark (HE cost vs GradSec's TEE cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .paillier import PaillierPrivateKey, PaillierPublicKey, generate_keypair

__all__ = ["QuantizationConfig", "BatchCrypt"]


@dataclass(frozen=True)
class QuantizationConfig:
    """Lane layout for packed gradients.

    Attributes
    ----------
    value_bits:
        Bits used for each quantized value (two's complement).
    clip:
        Symmetric clipping range; values land in ``[-clip, clip]``.
    max_clients:
        Number of ciphertexts that may be summed; fixes the guard bits.
    """

    value_bits: int = 16
    clip: float = 1.0
    max_clients: int = 8

    @property
    def guard_bits(self) -> int:
        return max(1, (self.max_clients - 1).bit_length() + 1)

    @property
    def lane_bits(self) -> int:
        return self.value_bits + self.guard_bits

    @property
    def quant_max(self) -> int:
        return (1 << (self.value_bits - 1)) - 1

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Clip and quantize floats to signed integers."""
        clipped = np.clip(np.asarray(values, dtype=np.float64), -self.clip, self.clip)
        return np.round(clipped / self.clip * self.quant_max).astype(np.int64)

    def dequantize(self, values: np.ndarray, count: int = 1) -> np.ndarray:
        """Inverse map; ``count`` rescales a sum of ``count`` contributions."""
        return np.asarray(values, dtype=np.float64) * self.clip / self.quant_max


class BatchCrypt:
    """End-to-end BatchCrypt aggregation over Paillier ciphertexts.

    Parameters
    ----------
    config:
        Quantization/lane configuration.
    key_bits:
        Paillier modulus size (shared keypair across the silo clients, as
        in the cross-silo setting the paper targets).
    """

    def __init__(self, config: QuantizationConfig | None = None, key_bits: int = 512) -> None:
        self.config = config or QuantizationConfig()
        self.public, self._private = generate_keypair(key_bits)
        # Lanes per ciphertext: leave two lanes of headroom below n.
        self.lanes = max(1, (self.public.n.bit_length() - 2) // self.config.lane_bits)

    # -- lane codec -------------------------------------------------------
    def _encode_lanes(self, quantized: np.ndarray) -> int:
        """Pack signed lane values into one big integer (two's complement)."""
        lane_bits = self.config.lane_bits
        mask = (1 << lane_bits) - 1
        packed = 0
        for i, value in enumerate(quantized):
            packed |= (int(value) & mask) << (i * lane_bits)
        return packed

    def _decode_lanes(self, packed: int, count: int) -> np.ndarray:
        lane_bits = self.config.lane_bits
        mask = (1 << lane_bits) - 1
        sign_bit = 1 << (lane_bits - 1)
        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            lane = (packed >> (i * lane_bits)) & mask
            out[i] = lane - (1 << lane_bits) if lane & sign_bit else lane
        return out

    # -- client side --------------------------------------------------------
    def encrypt_vector(self, values: np.ndarray) -> List[int]:
        """Quantize, pack and encrypt a flat gradient vector."""
        quantized = self.config.quantize(values)
        ciphertexts: List[int] = []
        for start in range(0, quantized.size, self.lanes):
            chunk = quantized[start : start + self.lanes]
            ciphertexts.append(self.public.encrypt(self._encode_lanes(chunk)))
        return ciphertexts

    # -- server side ----------------------------------------------------------
    def aggregate(self, client_ciphertexts: Sequence[List[int]]) -> List[int]:
        """Lane-wise homomorphic sum of the clients' ciphertext lists."""
        if not client_ciphertexts:
            raise ValueError("nothing to aggregate")
        if len(client_ciphertexts) > self.config.max_clients:
            raise ValueError(
                f"{len(client_ciphertexts)} clients exceed the guard-bit "
                f"budget for {self.config.max_clients}"
            )
        length = len(client_ciphertexts[0])
        for cts in client_ciphertexts:
            if len(cts) != length:
                raise ValueError("clients disagree on ciphertext count")
        return [
            self.public.add_many(cts[i] for cts in client_ciphertexts)
            for i in range(length)
        ]

    # -- decryption ------------------------------------------------------------
    def decrypt_vector(self, ciphertexts: Sequence[int], size: int) -> np.ndarray:
        """Decrypt and unpack an (aggregated) ciphertext list."""
        values = np.empty(size, dtype=np.int64)
        cursor = 0
        for ciphertext in ciphertexts:
            packed = self._private.decrypt(ciphertext)
            count = min(self.lanes, size - cursor)
            values[cursor : cursor + count] = self._decode_lanes(packed, count)
            cursor += count
        if cursor != size:
            raise ValueError(f"ciphertexts decode {cursor} values, expected {size}")
        return values

    def aggregate_plaintext(
        self, client_vectors: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Full pipeline: encrypt each client, aggregate, decrypt, dequantize."""
        size = int(np.asarray(client_vectors[0]).size)
        encrypted = [self.encrypt_vector(np.asarray(v).ravel()) for v in client_vectors]
        total = self.aggregate(encrypted)
        summed = self.decrypt_vector(total, size)
        return self.config.dequantize(summed)
