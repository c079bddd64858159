"""Server-side aggregation: FedAvg over an exact streaming reduce.

:class:`CompensatedAccumulator` is the one reduction kernel.  Contributions
``count_i * w_i`` (each update a flat float64 vector) are folded one at a
time into a compensated accumulator (a Shewchuk-style expansion: a short
list of non-overlapping float64 arrays whose *exact* sum is the true sum —
every fold is an error-free transformation built from TwoSum).  Because the
accumulator represents the exact real-valued sum, the rounded result is
independent of fold order **and** of how clients are grouped into shards: a
hierarchical (sharded) reduce produces the same bits as the flat one.
Memory is O(model size) per accumulator — never O(clients × model size).

:mod:`repro.fl.sharding` and :mod:`repro.fl.buffer` build the sync tree and
the async commit window on this accumulator; :func:`fedavg` is the same
fold over a list of :data:`WeightsList` updates, so flat and sharded
deployments are bitwise-interchangeable.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..nn.model import WeightsList
from ..nn.serialize import flatten_weights, unflatten_weights

__all__ = [
    "CompensatedAccumulator",
    "fedavg",
    "merge_plain_and_sealed",
]


def _two_sum(a, b):
    """Branch-free TwoSum: ``a + b == s + err`` exactly (arrays or floats)."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


class CompensatedAccumulator:
    """Exact streaming sum of equally-sized float64 vectors.

    The state is an *expansion*: a short list of component arrays whose
    elementwise (real-number) sum equals the true sum of everything folded
    so far.  Each :meth:`add` propagates the new addend through the
    components with TwoSum — an error-free transformation — and appends the
    final residual as a new component; components that become identically
    zero are dropped, so the list stays short (one or two arrays for
    same-magnitude data, bounded by the dynamic range of float64 in the
    worst case) and memory stays O(size), independent of the number of
    addends.

    :meth:`add` allocates nothing: TwoSum writes into four scratch buffers
    kept beside the expansion (not in :attr:`live_bytes`, not serialised)
    and recycles each replaced component as scratch.  Live arrays are thus
    overwritten by later folds, so none leaves the object (:attr:`components`
    and :meth:`value` copy) and an addend is only ever read.

    Because the represented value is exact, :meth:`value` — which distills
    the expansion into non-overlapping form and returns the leading
    component — does not depend on the order in which addends were folded
    or on how a sum was split across accumulators and :meth:`merge`\\ d.
    """

    #: hard cap on live components — ~40 covers float64's full dynamic
    #: range; exceeding it means pathological inputs (inf/nan), not growth.
    MAX_COMPONENTS = 64

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size cannot be negative")
        self.size = int(size)
        self._components: List[np.ndarray] = []
        self._scratch: List[np.ndarray] = []
        self.folds = 0

    # -- folding -----------------------------------------------------------
    def add(self, values: np.ndarray) -> None:
        """Fold one dense addend (exactly) into the running sum."""
        x = np.asarray(values, dtype=np.float64)
        if x.shape != (self.size,):
            raise ValueError(f"addend must have shape ({self.size},)")
        components = self._components
        if not self._scratch:
            self._scratch = [np.empty(self.size) for _ in range(4)]
        s, bb, t, err = scratch = self._scratch
        emptied = False
        for i, c in enumerate(components):
            # TwoSum(c, x) -> (s, err), rounded in the order _two_sum does.
            np.add(c, x, out=s)
            np.subtract(s, c, out=bb)
            np.subtract(s, bb, out=t)
            np.subtract(c, t, out=t)
            np.subtract(x, bb, out=bb)
            x = np.add(t, bb, out=err)
            if s[0] == 0.0 and not s.any():
                emptied = True
            components[i] = s
            s = scratch[0] = c  # the replaced array is the next sum's buffer
        if x.any():
            components.append(x.copy())
            if len(components) > self.MAX_COMPONENTS:
                raise OverflowError("compensated expansion grew unboundedly")
        if emptied:
            self._prune()
        self.folds += 1

    def add_at(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold a sparse addend (zero off ``indices``) without densifying.

        Adding an exact zero never changes an exact sum, so only the
        touched coordinates need TwoSum propagation; the residual — if any
        survives — is scattered into a fresh component.
        """
        indices = np.asarray(indices)
        x = np.asarray(values, dtype=np.float64).copy()
        if indices.shape != x.shape:
            raise ValueError("indices and values must align")
        if indices.size and int(indices.max()) >= self.size:
            raise ValueError("index out of range")
        for component in self._components:
            s, x = _two_sum(component[indices], x)
            component[indices] = s
        if x.any():
            residual = np.zeros(self.size)
            residual[indices] = x
            self._components.append(residual)
        self._prune()
        self.folds += 1

    def merge(self, other: "CompensatedAccumulator") -> None:
        """Fold another accumulator's exact value into this one (exactly)."""
        if other.size != self.size:
            raise ValueError("accumulator sizes must match")
        for component in other._components:
            self.add(component)
            self.folds -= 1  # merged components are not client folds
        self.folds += other.folds

    def _prune(self) -> None:
        self._components = [c for c in self._components if c.any()]

    # -- reading out -------------------------------------------------------
    def value(self) -> np.ndarray:
        """The rounded exact sum (a pure function of the folded multiset)."""
        components = list(self.components)
        if not components:
            return np.zeros(self.size)
        # Distill to non-overlapping form: sweep TwoSum from the smallest
        # component upward until a fixed point; each sweep is exact, so the
        # represented value never changes, and at the fixed point the
        # leading component carries the rounded total.
        for _ in range(len(components) + 2):
            changed = False
            for i in range(len(components) - 1, 0, -1):
                s, err = _two_sum(components[i - 1], components[i])
                if not (
                    np.array_equal(s, components[i - 1])
                    and np.array_equal(err, components[i])
                ):
                    changed = True
                components[i - 1], components[i] = s, err
            if not changed:
                break
        return components[0]

    @property
    def live_bytes(self) -> int:
        """Resident bytes of the expansion (the memory-bound invariant)."""
        return 8 * self.size * len(self._components)

    @property
    def components(self) -> Tuple[np.ndarray, ...]:
        """A copy of the expansion (a float component as a 1-element array)."""
        return tuple(np.array(c, ndmin=1) for c in self._components)


class _ScalarAccumulator(CompensatedAccumulator):
    """``CompensatedAccumulator(1)`` whose expansion is carried as Python
    floats (the same IEEE doubles): one sweep, pruning rule, cap and set of
    read-outs, but no array per :meth:`add`.  Dense adds and merges only."""

    def __init__(self) -> None:
        super().__init__(1)

    def add(self, x: float) -> None:
        components = self._components
        for i, c in enumerate(components):
            components[i], x = _two_sum(c, x)
        if x != 0.0:
            components.append(x)
            if len(components) > self.MAX_COMPONENTS:
                raise OverflowError("compensated expansion grew unboundedly")
        if 0.0 in components:
            self._components = [c for c in components if c != 0.0]
        self.folds += 1


def fedavg(
    weights_list: Sequence[WeightsList], sample_counts: Sequence[int] | None = None
) -> WeightsList:
    """FedAvg through the canonical exact streaming reduce.

    Uniform or sample-weighted mean of client weights, computed as the
    rounding of the *exact* weighted sum — so the result is independent of
    client order and identical to what any sharded hierarchical fold over
    the same updates produces (see :mod:`repro.fl.sharding`).  Peak memory
    is O(model size) regardless of cohort size.
    """
    counts = sample_counts or [1] * len(weights_list)
    if not weights_list:
        raise ValueError("no client weights to aggregate")
    if len(weights_list) != len(counts):
        raise ValueError("weights and sample counts must align")
    if any(c <= 0 for c in counts):
        raise ValueError("total sample count must be positive")
    template = weights_list[0]
    if not template:
        raise ValueError("template must describe at least one layer")
    total = CompensatedAccumulator(flatten_weights(template).size)
    for weights, count in zip(weights_list, counts):
        if len(weights) != len(template):
            raise ValueError("clients disagree on layer count")
        flat = flatten_weights(weights)
        if flat.size != total.size:
            raise ValueError("clients disagree on parameter count")
        total.add(float(count) * flat)
    mean = total.value() / float(sum(int(c) for c in counts))
    return unflatten_weights(mean, template)


def merge_plain_and_sealed(
    plain: WeightsList, unsealed: WeightsList
) -> WeightsList:
    """Recombine a client update: plain layers + unsealed protected layers.

    ``plain`` has empty dicts at protected positions; ``unsealed`` (produced
    by the server's trusted-I/O-path endpoint) has empty dicts everywhere
    else.  Exactly one side must supply each layer.
    """
    if len(plain) != len(unsealed):
        raise ValueError("layer count mismatch between plain and sealed parts")
    merged: WeightsList = []
    for index, (p, s) in enumerate(zip(plain, unsealed)):
        if p and s:
            raise ValueError(f"layer {index} present in both plain and sealed parts")
        merged.append(dict(p) if p else dict(s))
    return merged
