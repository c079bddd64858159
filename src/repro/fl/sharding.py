"""Hierarchical (sharded) aggregation with a bounded-memory streaming reduce.

Topology: ``clients → shard aggregators → root``.  An update is a flat
float64 vector in :func:`~repro.nn.serialize.flatten_weights` order, and
:class:`HierarchicalAggregator` is the one tree for every rule: route each
update to a shard with :meth:`~HierarchicalAggregator.fold`, then
:meth:`~HierarchicalAggregator.reduce` once to get the aggregate vector.

**FedAvg** (``rule="fedavg"``).  Each shard is a
:class:`~repro.fl.aggregation.CompensatedAccumulator` that folds
``num_samples * update`` the moment it arrives, so a shard holds O(model
size) state no matter how many clients report to it.  When the round
closes, shards reduce pairwise into the root (a balanced binary merge),
and the root divides once by the exact sample total.  Every fold and merge
is an error-free transformation (TwoSum expansions, see
:mod:`repro.fl.aggregation`), so the tree computes the *exact* weighted sum
and then rounds once: the result is a pure function of the multiset of
client updates — independent of arrival order, shard count, shard sizes,
and merge shape — and bitwise identical to the flat
:func:`~repro.fl.aggregation.fedavg` over the same updates.  The
hypothesis suite exercises exactly this claim.

**Byzantine-robust rules** (median, trimmed mean, Krum, clipped mean — see
:mod:`repro.fl.robust`) need the update *set*; each shard is a
:class:`RobustShardCollector`:

* for ``median`` / ``krum`` / ``clipped_fedavg`` each shard **gathers**
  its updates; the root orders the union by cohort position and applies
  the pure rule — so the aggregate is a pure function of the ``(position,
  update)`` multiset, bitwise-identical for every shard count, routing,
  and arrival order, and with one shard it *is* the pure rule call;
* for ``trimmed_mean`` each shard keeps only an **exact compensated
  sum** of everything it folded plus the per-coordinate ``trim``
  smallest/largest candidate rows (the only values the root could ever
  trim) — O(trim × model) per shard instead of O(clients × model).  The
  root merges the exact sums, picks the global extremes from the
  candidate union, subtracts them exactly, and rounds once: the correctly
  rounded trimmed mean, independent of shard count, routing and order,
  and bitwise-equal to :func:`repro.fl.robust.trimmed_mean`.

Robust rules are unweighted (the literature's convention): sample counts
are tracked for reporting but do not weight the combine.

Observability: every fold counts into ``fl.shard.folds`` (labelled per
shard), shard→root partials are sized into ``fl.shard.partial_bytes``, and
— unless disabled via :class:`~repro.fl.config.ShardingConfig` — resident
shard bytes are published as ``fl.shard.bytes.live`` / ``.peak`` gauges.
The root reduce runs inside an ``fl.shard.reduce`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..nn.model import WeightsList
from ..nn.serialize import weights_to_bytes
from ..obs import get_registry, get_tracer
from .aggregation import CompensatedAccumulator
from .config import ShardingConfig
from .robust import RULES, apply_rule

__all__ = [
    "shard_of",
    "ShardPartial",
    "HierarchicalAggregator",
    "RobustShardPartial",
    "RobustShardCollector",
]


def shard_of(item_index: int, num_items: int, num_shards: int) -> int:
    """The shard of ``item_index`` in a contiguous, balanced assignment.

    Deterministic: the first ``num_items % num_shards`` shards get the
    extra item.  Shards beyond the item count stay empty (a 3-client
    cohort on a 64-shard tree is legal; empty shards contribute nothing).
    """
    if not 0 <= item_index < num_items:
        raise ValueError("item_index out of range")
    base, extra = divmod(num_items, num_shards)
    boundary = extra * (base + 1)
    if item_index < boundary:
        return item_index // (base + 1)
    return extra + (item_index - boundary) // base if base else extra


@dataclass
class ShardPartial:
    """Shard → root message: one shard's partial fold.

    Carries the expansion components (each O(model size)) and the shard's
    exact sample-count total; :meth:`wire_bytes` prices the uplink the same
    way the client transport does, so the simulator can charge shard→root
    traffic through its :class:`~repro.sim.network.NetworkModel`.
    """

    shard_id: int
    total_samples: int
    folds: int
    components: Tuple[np.ndarray, ...]

    def wire_bytes(self) -> int:
        if not self.components:
            return 0
        payload: WeightsList = [
            {f"c{i}": component for i, component in enumerate(self.components)}
        ]
        return len(weights_to_bytes(payload))


@dataclass
class RobustShardPartial:
    """Shard → root message of a robust rule's shard.

    ``arrays`` is whatever the shard's collect mode produced — gathered
    update rows, or (for the streaming trimmed collect) the compensated-sum
    components plus candidate-extreme matrices.  :meth:`wire_bytes` prices
    the uplink exactly like :class:`ShardPartial` does, so simulators can
    charge the hop through a :class:`~repro.sim.network.NetworkModel`.
    """

    shard_id: int
    count: int
    arrays: Tuple[np.ndarray, ...]

    def wire_bytes(self) -> int:
        if not self.arrays:
            return 0
        payload: WeightsList = [
            {f"a{i}": array for i, array in enumerate(self.arrays)}
        ]
        return len(weights_to_bytes(payload))


class RobustShardCollector:
    """One shard of a robust rule's tree.

    ``mode="gather"`` keeps every folded update as a ``(position, flat)``
    row (memory O(shard cohort × model) — inherent to median/Krum, which
    need the full set).  ``mode="trimmed"`` keeps an exact
    :class:`~repro.fl.aggregation.CompensatedAccumulator` over everything
    folded plus the per-coordinate ``trim`` smallest and largest candidate
    rows — the only values a global trim could ever drop — so memory is
    O(trim × model) no matter how many clients report to the shard.

    Cohort positions must be unique within a round; they are the stable
    sort key that makes the root combine independent of arrival order.
    """

    def __init__(
        self, shard_id: int, size: int, mode: str = "gather", trim: int = 1
    ) -> None:
        if mode not in ("gather", "trimmed"):
            raise ValueError(f"unknown collect mode {mode!r}")
        self.shard_id = int(shard_id)
        self.size = int(size)
        self.mode = mode
        self.trim = int(trim)
        self.folds = 0
        self._rows: List[Tuple[int, np.ndarray]] = []
        self._sum = CompensatedAccumulator(self.size) if mode == "trimmed" else None
        self._low: Optional[np.ndarray] = None  # (<=trim, size), ascending
        self._high: Optional[np.ndarray] = None  # (<=trim, size), ascending

    def fold(self, flat: np.ndarray, position: int) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.size:
            raise ValueError("clients disagree on parameter count")
        if self.mode == "gather":
            self._rows.append((int(position), flat))
        else:
            self._sum.add(flat)
            if self.trim > 0:
                row = flat[None, :]
                low = row if self._low is None else np.sort(
                    np.concatenate([self._low, row]), axis=0
                )[: self.trim]
                high = row if self._high is None else np.sort(
                    np.concatenate([self._high, row]), axis=0
                )[-self.trim :]
                self._low, self._high = low, high
        self.folds += 1

    @property
    def live_bytes(self) -> int:
        if self.mode == "gather":
            return int(sum(row.nbytes for _, row in self._rows))
        extreme = sum(
            int(m.nbytes) for m in (self._low, self._high) if m is not None
        )
        return self._sum.live_bytes + extreme

    def partial(self) -> RobustShardPartial:
        """Snapshot this shard's collect as a shard→root message."""
        if self.mode == "gather":
            positions = np.array([p for p, _ in self._rows], dtype=np.int64)
            rows = (
                np.stack([row for _, row in self._rows])
                if self._rows
                else np.zeros((0, self.size))
            )
            arrays: Tuple[np.ndarray, ...] = (positions, rows)
        else:
            low = self._low if self._low is not None else np.zeros((0, self.size))
            high = (
                self._high if self._high is not None else np.zeros((0, self.size))
            )
            arrays = (low.copy(), high.copy()) + tuple(
                c.copy() for c in self._sum.components
            )
        return RobustShardPartial(
            shard_id=self.shard_id, count=self.folds, arrays=arrays
        )


class HierarchicalAggregator:
    """The aggregation tree: shards reducing into a root, under one rule.

    Parameters
    ----------
    size:
        Length of every update vector (the model's parameter count).
    config:
        Tree topology; ``num_shards == 1`` is the flat special case.
    rule / trim / num_byzantine / clip_norm:
        Aggregation rule — any of :data:`repro.fl.robust.RULES` — and its
        parameters.  ``fedavg`` is the exact sample-weighted streaming
        reduce; the robust rules combine the shards' collects at the root
        (see the module docstring).

    Usage: route each update to its shard with :meth:`fold` (any
    assignment — the result cannot depend on it), then :meth:`reduce` once
    to obtain the aggregate.  ``peak_bytes`` afterwards reports the largest
    resident footprint any single node (shard or root) reached — the
    bounded-memory invariant the scale tests assert is independent of
    client count for ``fedavg``.
    """

    def __init__(
        self,
        size: int,
        config: Optional[ShardingConfig] = None,
        *,
        rule: str = "fedavg",
        trim: int = 1,
        num_byzantine: int = 1,
        clip_norm: Optional[float] = None,
    ) -> None:
        if rule not in RULES:
            raise ValueError(
                f"unknown aggregation rule {rule!r}; expected one of {RULES}"
            )
        self.size = int(size)
        self.config = config or ShardingConfig()
        self.rule = rule
        self.trim = int(trim)
        self.num_byzantine = int(num_byzantine)
        self.clip_norm = clip_norm
        shards = range(self.config.num_shards)
        self.shards: List[Union[CompensatedAccumulator, RobustShardCollector]]
        if rule == "fedavg":
            self.shards = [CompensatedAccumulator(self.size) for _ in shards]
        else:
            mode = "trimmed" if rule == "trimmed_mean" else "gather"
            self.shards = [
                RobustShardCollector(i, self.size, mode, self.trim) for i in shards
            ]
        self._samples = [0 for _ in shards]
        self._peaks = [0 for _ in shards]
        self.partial_bytes = 0
        self.root_peak_bytes = 0

    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    def fold(
        self,
        shard_id: int,
        flat: np.ndarray,
        num_samples: int,
        position: Optional[int] = None,
    ) -> None:
        """Fold one update vector into ``shard_id``, then drop it.

        ``position`` is the update's cohort position, the stable order a
        robust rule sees (default: the fold count); the exact ``fedavg``
        reduce is order-free and ignores it.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        shard = self.shards[shard_id]
        if self.rule == "fedavg":
            if flat.size != self.size:
                raise ValueError("clients disagree on parameter count")
            shard.add(float(num_samples) * flat)
        else:
            shard.fold(flat, self.folds if position is None else int(position))
        self._samples[shard_id] += int(num_samples)
        registry = get_registry()
        registry.counter(
            "fl.shard.folds", "client updates folded by shard aggregators"
        ).inc(shard=str(shard_id))
        live = shard.live_bytes
        peak = max(self._peaks[shard_id], live)
        self._peaks[shard_id] = peak
        if self.config.track_memory:
            registry.gauge(
                "fl.shard.bytes.live", "resident accumulator bytes per shard"
            ).set(live, shard=str(shard_id))
            registry.gauge(
                "fl.shard.bytes.peak", "peak accumulator bytes per shard"
            ).set(peak, shard=str(shard_id))

    @property
    def folds(self) -> int:
        return sum(shard.folds for shard in self.shards)

    @property
    def total_samples(self) -> int:
        return sum(self._samples)

    @property
    def peak_bytes(self) -> int:
        """Largest resident footprint any single tree node reached."""
        return max(max(self._peaks, default=0), self.root_peak_bytes)

    def partials(self) -> List[Union[ShardPartial, RobustShardPartial]]:
        """Shard→root messages for the non-empty shards, sized and counted."""
        registry = get_registry()
        out: List[Union[ShardPartial, RobustShardPartial]] = []
        for shard_id, shard in enumerate(self.shards):
            if shard.folds == 0:
                continue
            if self.rule == "fedavg":
                partial = ShardPartial(
                    shard_id=shard_id,
                    total_samples=self._samples[shard_id],
                    folds=shard.folds,
                    components=shard.components,
                )
            else:
                partial = shard.partial()
            size = partial.wire_bytes()
            self.partial_bytes += size
            registry.counter(
                "fl.shard.partial_bytes", "bytes shards sent to the root"
            ).inc(size, shard=str(shard_id))
            out.append(partial)
        return out

    def reduce(self) -> np.ndarray:
        """Combine the shards at the root under the configured rule."""
        if self.folds == 0:
            raise ValueError("no client weights to aggregate")
        attributes = {"shards": self.num_shards, "folds": self.folds}
        if self.rule != "fedavg":  # fedavg spans never carried a rule field
            attributes["rule"] = self.rule
        with get_tracer().span("fl.shard.reduce", **attributes) as span:
            span.set_attribute("total_samples", self.total_samples)
            if self.rule == "fedavg":
                return self._reduce_fedavg()
            if self.shards[0].mode == "trimmed":
                return self._reduce_trimmed()
            return self._reduce_gather()

    def _reduce_fedavg(self) -> np.ndarray:
        """Pairwise-merge the shard sums into the root and divide once.

        The merge tree is balanced (halving passes), but because every
        merge is exact the shape is immaterial to the result — it only
        bounds the root's transient memory at two partials' components.
        """
        live = [shard for shard in self.shards if shard.folds > 0]
        while len(live) > 1:
            merged: List[CompensatedAccumulator] = []
            for left, right in zip(live[::2], live[1::2]):
                left.merge(right)
                self.root_peak_bytes = max(self.root_peak_bytes, left.live_bytes)
                merged.append(left)
            if len(live) % 2:
                merged.append(live[-1])
            live = merged
        return live[0].value() / float(self.total_samples)

    def _reduce_gather(self) -> np.ndarray:
        rows: List[Tuple[int, np.ndarray]] = []
        for shard in self.shards:
            rows.extend(shard._rows)
        rows.sort(key=lambda item: item[0])
        matrix = [row for _, row in rows]
        self.root_peak_bytes = max(
            self.root_peak_bytes, int(sum(row.nbytes for row in matrix))
        )
        return apply_rule(
            self.rule,
            matrix,
            trim=self.trim,
            num_byzantine=self.num_byzantine,
            clip_norm=self.clip_norm,
        )

    def _reduce_trimmed(self) -> np.ndarray:
        """Exact distributed trimmed mean from sums + candidate extremes.

        The global ``trim`` smallest (largest) values of every coordinate
        are necessarily among the union of the shards' ``trim`` smallest
        (largest) candidates, so subtracting the sorted union's extremes
        from the exact total leaves exactly the trimmed sum; one division
        rounds it.  Candidate sorting canonicalises shard order, and the
        compensated merge is exact, so the result is independent of
        routing and arrival order.
        """
        n = self.folds
        effective = min(self.trim, (n - 1) // 2)
        total = CompensatedAccumulator(self.size)
        lows: List[np.ndarray] = []
        highs: List[np.ndarray] = []
        for shard in self.shards:
            if shard.folds == 0:
                continue
            for component in shard._sum.components:
                total.add(component)
            if shard._low is not None:
                lows.append(shard._low)
                highs.append(shard._high)
        if effective > 0 and lows:
            low_union = np.sort(np.concatenate(lows), axis=0)[:effective]
            high_union = np.sort(np.concatenate(highs), axis=0)[-effective:]
            for row in low_union:
                total.add(-row)
            for row in high_union:
                total.add(-row)
        self.root_peak_bytes = max(self.root_peak_bytes, total.live_bytes)
        return total.value() / float(n - 2 * effective)
