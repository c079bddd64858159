"""Paillier additively homomorphic encryption (BatchCrypt's substrate).

BatchCrypt [55] — one of the paper's related-work baselines — performs
FedAvg over Paillier ciphertexts so the server never sees plaintext
gradients. This module implements textbook Paillier from scratch:

* key generation with Miller-Rabin primality testing;
* ``Enc(m) = g^m * r^n mod n^2`` with ``g = n + 1`` (so ``g^m`` is the
  cheap ``1 + n*m mod n^2``);
* additive homomorphism: ``Enc(a) * Enc(b) = Enc(a + b)`` and scalar
  multiplication by exponentiation.

Key sizes default to 512 bits — small by deployment standards but honest
cryptography, keeping the benchmark costs representative in *relative*
terms (the point the paper makes: HE is orders of magnitude more expensive
than a TEE).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Iterable, List

__all__ = ["PaillierPublicKey", "PaillierPrivateKey", "generate_keypair"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _is_probable_prime(n: int, rounds: int = 30) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    while True:
        candidate = secrets.randbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public parameters ``(n, n^2)``; ``g`` is fixed to ``n + 1``."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    def encrypt(self, message: int) -> int:
        """Encrypt a non-negative integer ``message < n``."""
        if not 0 <= message < self.n:
            raise ValueError(f"plaintext {message} outside [0, n)")
        n2 = self.n_squared
        while True:
            r = secrets.randbelow(self.n - 1) + 1
            if r % self.n != 0:
                break
        # g^m = (1 + n)^m = 1 + n*m (mod n^2) for g = n + 1.
        g_m = (1 + self.n * message) % n2
        return (g_m * pow(r, self.n, n2)) % n2

    def add_many(self, ciphertexts: Iterable[int]) -> int:
        total = 1
        n2 = self.n_squared
        for c in ciphertexts:
            total = (total * c) % n2
        return total


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Decryption key: ``lambda = lcm(p-1, q-1)`` and ``mu``."""

    public: PaillierPublicKey
    lam: int
    mu: int

    def decrypt(self, ciphertext: int) -> int:
        n = self.public.n
        n2 = self.public.n_squared
        if not 0 < ciphertext < n2:
            raise ValueError("ciphertext outside the valid range")
        x = pow(ciphertext, self.lam, n2)
        l_value = (x - 1) // n
        return (l_value * self.mu) % n


def generate_keypair(bits: int = 512) -> tuple:
    """Generate a Paillier keypair with an ``bits``-bit modulus."""
    if bits < 64:
        raise ValueError("modulus below 64 bits is meaningless even for tests")
    half = bits // 2
    while True:
        p = _random_prime(half)
        q = _random_prime(half)
        if p != q:
            break
    n = p * q
    lam = (p - 1) * (q - 1) // _gcd(p - 1, q - 1)  # lcm
    public = PaillierPublicKey(n)
    # mu = L(g^lambda mod n^2)^{-1} mod n with g = n + 1:
    x = pow(n + 1, lam, n * n)
    l_value = (x - 1) // n
    mu = pow(l_value, -1, n)
    return public, PaillierPrivateKey(public, lam, mu)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
