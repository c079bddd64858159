"""Secure memory pool and shielded buffers.

The pool models TrustZone's scarce secure RAM: a fixed capacity (default
4 MiB, in the paper's stated 3–5 MB range), explicit allocation/free, a peak
watermark (what Table 6 reports), and hard failure on exhaustion.

A :class:`ShieldedBuffer` is the simulator's confidentiality primitive: the
payload array is only readable while the secure world is active.  Reading it
from the normal world — which is what a memory-scraper attacker would do —
raises :class:`~repro.tee.world.SecureWorldViolation`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..obs import get_registry
from .world import (
    SecureMemoryExhausted,
    SecureWorldViolation,
    current_world,
    require_secure_world,
    World,
)

__all__ = ["SecureMemoryPool", "ShieldedBuffer", "DEFAULT_CAPACITY_BYTES"]

DEFAULT_CAPACITY_BYTES = 4 * 1024 * 1024  # 4 MiB, mid-range of the paper's 3-5 MB


class SecureMemoryPool:
    """Capacity-limited allocator for secure-world memory.

    Parameters
    ----------
    capacity_bytes:
        Total secure memory available to trusted applications.
    name:
        Label under which this pool reports ``tee.pool.*`` metrics
        (occupancy, high-water mark, allocation/exhaustion counts).  FL
        clients name their pool after the client id, so per-device secure
        memory is observable; anonymous pools share the ``"default"``
        series.
    """

    def __init__(
        self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES, name: str = "default"
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.name = str(name)
        self._allocations: Dict[int, int] = {}
        self._next_handle = 1
        self.used_bytes = 0
        self.peak_bytes = 0
        self.allocation_count = 0
        get_registry().gauge(
            "tee.pool.capacity_bytes", "secure memory pool capacity"
        ).set(self.capacity_bytes, pool=self.name)

    def _publish_occupancy(self) -> None:
        registry = get_registry()
        registry.gauge("tee.pool.used_bytes", "secure memory in use").set(
            self.used_bytes, pool=self.name
        )
        registry.gauge(
            "tee.pool.peak_bytes", "secure memory high-water mark"
        ).set_max(self.peak_bytes, pool=self.name)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, num_bytes: int) -> int:
        """Reserve ``num_bytes``; returns an allocation handle.

        Raises
        ------
        SecureMemoryExhausted
            If the pool cannot satisfy the request — the enclave-side
            equivalent of ``malloc`` returning NULL in DarkneTZ.
        """
        num_bytes = int(num_bytes)
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if num_bytes > self.free_bytes:
            get_registry().counter(
                "tee.pool.exhaustions", "allocations refused for lack of space"
            ).inc(pool=self.name)
            raise SecureMemoryExhausted(
                f"requested {num_bytes} B but only {self.free_bytes} B of "
                f"{self.capacity_bytes} B secure memory is free"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = num_bytes
        self.used_bytes += num_bytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.allocation_count += 1
        get_registry().counter(
            "tee.pool.allocations", "successful secure memory allocations"
        ).inc(pool=self.name)
        self._publish_occupancy()
        return handle

    def release(self, handle: int) -> None:
        """Free a previous allocation (idempotent errors are loud)."""
        size = self._allocations.pop(handle, None)
        if size is None:
            raise KeyError(f"unknown or already-released allocation {handle}")
        self.used_bytes -= size
        self._publish_occupancy()

    def reset_peak(self) -> None:
        """Start a fresh peak-watermark measurement (per FL cycle)."""
        self.peak_bytes = self.used_bytes


class ShieldedBuffer:
    """A numpy array living in secure memory.

    The payload is reachable via :meth:`read` / :meth:`view` only while the
    secure world is active.  ``data``/``numpy()`` style access from the
    normal world raises, so any code path that would leak the plaintext to a
    normal-world attacker fails closed.
    """

    def __init__(
        self,
        pool: SecureMemoryPool,
        array: np.ndarray,
        label: str = "",
        nbytes_override: Optional[int] = None,
    ) -> None:
        array = np.asarray(array)
        self._pool = pool
        # The simulator computes in float64 for numerical fidelity, but the
        # device stores float32; callers pass nbytes_override to charge the
        # pool what the real enclave would allocate.
        charged = int(array.nbytes if nbytes_override is None else nbytes_override)
        self._handle = pool.allocate(charged)
        self._array: Optional[np.ndarray] = array.copy()
        self.label = label
        self.shape = array.shape
        self.nbytes = charged

    def read(self) -> np.ndarray:
        """Return a copy of the payload (secure world only)."""
        require_secure_world(f"reading shielded buffer {self.label!r}")
        self._check_live()
        return self._array.copy()

    def view(self) -> np.ndarray:
        """Return the payload without copying (secure world only)."""
        require_secure_world(f"viewing shielded buffer {self.label!r}")
        self._check_live()
        return self._array

    def release(self) -> None:
        """Free the secure memory backing this buffer."""
        if self._array is not None:
            self._pool.release(self._handle)
            self._array = None

    def _check_live(self) -> None:
        if self._array is None:
            raise SecureWorldViolation(
                f"shielded buffer {self.label!r} was already released"
            )

    # Deliberately leak-proof conveniences -----------------------------
    def __repr__(self) -> str:
        world = current_world()
        return (
            f"ShieldedBuffer(label={self.label!r}, shape={self.shape}, "
            f"nbytes={self.nbytes}, world={world.value})"
        )

    def __array__(self, dtype=None):
        # numpy coercion from the normal world is an exfiltration attempt.
        if current_world() is not World.SECURE:
            raise SecureWorldViolation(
                f"cannot coerce shielded buffer {self.label!r} to an array "
                "from the normal world"
            )
        self._check_live()
        return self._array.astype(dtype) if dtype else self._array.copy()
