"""Byte-keyed workspace cache for kernel scratch arrays.

The fused convolution kernels in :mod:`repro.autodiff.fused` need large
scratch buffers (im2col column matrices, padded images, col2im
accumulators, transposed columns) on every training step.  Allocating them
with ``np.empty`` / ``np.zeros`` per call dominates the small-model hot
path, so this module keeps a free-list of buffers keyed on
``(nbytes, dtype)`` and hands them out on demand:

* :meth:`Workspace.checkout` pops a cached buffer of the right size (or
  allocates on miss) and reshapes it to the requested shape, so a kernel's
  ``(K, M)`` column matrix and its ``(M, K)`` transpose share one
  allocation.  A checked-out buffer is owned exclusively by the caller — it
  is *not* in the free-list — which makes the cache thread-safe: two
  clients training concurrently simply check out distinct buffers.
* :meth:`Workspace.release` returns a buffer to the free-list for reuse by
  the next checkout of the same size.  Only a whole C-contiguous buffer
  that owns its memory (or a full reshape of one) is pooled, and each
  allocation at most once; anything else — a strided view, a slice, a
  second release — is ignored.  Dropping a buffer without releasing it is
  always safe (it is garbage-collected; the pool just re-allocates).

Buffers are never zeroed implicitly; pass ``zero=True`` when the kernel
needs a cleared accumulator (col2im).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Workspace", "get_workspace", "set_workspace"]


class Workspace:
    """Thread-safe free-list of reusable scratch ndarrays.

    Parameters
    ----------
    max_buffers_per_key:
        Cap on cached buffers per ``(nbytes, dtype)`` key, bounding memory
        when many threads release buffers of the same size.
    """

    def __init__(self, max_buffers_per_key: int = 8) -> None:
        self._free: Dict[Tuple[int, str], List[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.max_buffers_per_key = int(max_buffers_per_key)
        self.hits = 0
        self.misses = 0

    def checkout(self, shape: tuple, dtype=np.float64, zero: bool = False) -> np.ndarray:
        """Return an exclusive C-contiguous buffer of ``shape``/``dtype``."""
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        key = (math.prod(shape) * dtype.itemsize, dtype.str)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                self.hits += 1
                buf = stack.pop()
            else:
                self.misses += 1
                buf = None
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
        elif buf.shape != shape:
            buf = buf.reshape(shape)
        if zero:
            buf.fill(0.0)
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the free-list (caller must drop its reference).

        ``buf`` may be a checked-out buffer or a full C-contiguous reshape of
        one; the allocation behind it is what gets pooled.
        """
        owner = buf if buf.base is None else buf.base
        if not (
            isinstance(owner, np.ndarray)
            and owner.flags.owndata
            and owner.flags.c_contiguous
            and buf.flags.c_contiguous
            and buf.nbytes == owner.nbytes
        ):
            return
        key = (owner.nbytes, owner.dtype.str)
        with self._lock:
            stack = self._free.setdefault(key, [])
            pooled = any(b is owner for b in stack)
            if not pooled and len(stack) < self.max_buffers_per_key:
                stack.append(owner)

    def clear(self) -> None:
        """Drop all cached buffers and reset hit/miss counters."""
        with self._lock:
            self._free.clear()
            self.hits = 0
            self.misses = 0

    @property
    def cached_bytes(self) -> int:
        """Total bytes currently held in the free-list."""
        with self._lock:
            return sum(b.nbytes for stack in self._free.values() for b in stack)

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "keys": len(self._free),
                "cached_bytes": sum(
                    b.nbytes for stack in self._free.values() for b in stack
                ),
            }


_GLOBAL = Workspace()


def get_workspace() -> Workspace:
    """The process-wide workspace shared by all fused kernels."""
    return _GLOBAL


def set_workspace(workspace) -> "Workspace":
    """Swap the process-wide workspace; returns the previous one.

    The graph tracer installs a non-recycling workspace while recording
    (a recycled buffer would alias two distinct trace values); anything
    honoring the checkout/release/clear protocol is accepted.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = workspace
    return previous
