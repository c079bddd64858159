"""FedBuff-style buffered aggregation over the exact streaming reduce.

:class:`BufferedAggregator` is the server-side half of the asynchronous
pipeline: admitted client updates stream in *as they arrive* (no round
barrier) and are folded immediately into per-shard exact accumulators; when
``K = BufferConfig.size`` updates have accumulated, :meth:`commit` closes
the window, produces the new global model, and resets for the next window.

Commit semantics (``rule == "fedavg"``): the committed model is the
staleness- and sample-weighted mean of the *trained weights* folded this
window,

    commit = sum_i(w_i * n_i * x_i) / sum_i(w_i * n_i)

with ``w_i = BufferConfig.weight(staleness_i)`` and ``n_i`` the client's
sample count.  Both the numerator (a vector) and the denominator (a scalar)
are kept as :class:`~repro.fl.aggregation.CompensatedAccumulator`
expansions, so each is the *exact* real-valued sum of its addends and the
single final division rounds once.  Consequences, which the hypothesis
suite (``tests/test_fl_buffer_property.py``) pins:

* the commit is a pure function of the folded multiset — independent of
  arrival order and of how updates were routed across shards;
* with constant weights, ``w_i * n_i`` is exactly ``float(n_i)`` and the
  folds are literally the ones :func:`~repro.fl.aggregation.fedavg`
  performs, so a ``K == cohort`` async commit is bitwise-identical to the
  sync round over the same updates;
* the rounded result equals a per-coordinate :func:`math.fsum` over the
  same rounded products ``(w_i * n_i) * x_i``.

Byzantine-robust rules compose the same way they do in the sync tree: each
shard gathers its ``(sort_key, flat)`` rows, and :meth:`commit` orders the
union by the caller-supplied sort key (the simulator uses the global
dispatch index) before applying the pure rule — so the robust commit is
also invariant to arrival order and shard routing.  Robust rules are
unweighted (the literature's convention); staleness is still recorded.

Observability: every fold observes the ``fl.staleness`` histogram and
counts into ``fl.buffer.folds``; every commit runs in an
``fl.buffer.commit`` span and counts into ``fl.buffer.commits``.

Mid-window state is fully serialisable (:meth:`state_dict` /
:meth:`load_state`): the expansions and gathered rows round-trip through
base64, which is what lets the simulator checkpoint *between* commits and
resume bit-for-bit.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import get_registry, get_tracer
from .aggregation import CompensatedAccumulator, _ScalarAccumulator
from .config import BufferConfig, ShardingConfig
from .robust import RULES, apply_rule
from .sharding import RobustShardPartial, ShardPartial

__all__ = ["BufferedAggregator", "encode_flat", "decode_flat"]


def encode_flat(array) -> str:
    """A float64 vector (or matrix of rows) as base64 JSON text."""
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).decode("ascii")


def decode_flat(blob: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype=np.float64).copy()


class _WeightedShardSum:
    """One shard's exact weighted fold: numerator vector + weight scalar."""

    def __init__(self, size: int) -> None:
        self.size = int(size)
        self.vector = CompensatedAccumulator(self.size)
        self.weight = _ScalarAccumulator()
        self.total_samples = 0

    def fold(self, flat: np.ndarray, contribution: float, num_samples: int) -> None:
        self.vector.add(contribution * flat)
        self.weight.add(contribution)
        self.total_samples += int(num_samples)

    def merge(self, other: "_WeightedShardSum") -> None:
        self.vector.merge(other.vector)
        self.weight.merge(other.weight)
        self.total_samples += other.total_samples

    @property
    def folds(self) -> int:
        return self.vector.folds

    @property
    def live_bytes(self) -> int:
        return self.vector.live_bytes + self.weight.live_bytes


class BufferedAggregator:
    """Buffer-of-K commit pipeline over the exact sharded reduce.

    Parameters
    ----------
    size:
        Length of every update vector (the model's parameter count, in
        :func:`~repro.nn.serialize.flatten_weights` order).
    config:
        Buffer size and staleness weighting.
    sharding:
        Shard topology of the fold (``None`` = flat).  As with the sync
        tree, the committed bits are independent of the topology.
    rule / trim / num_byzantine / clip_norm:
        Aggregation rule applied at commit.  ``fedavg`` is the exact
        weighted streaming fold; every other :data:`repro.fl.robust.RULES`
        entry gathers rows per shard and applies the pure rule to the
        sort-key-ordered union.
    """

    def __init__(
        self,
        size: int,
        config: Optional[BufferConfig] = None,
        sharding: Optional[ShardingConfig] = None,
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
        self.config = config or BufferConfig()
        self.sharding = sharding or ShardingConfig()
        self.rule = rule
        self.trim = int(trim)
        self.num_byzantine = int(num_byzantine)
        self.clip_norm = clip_norm
        self.commits = 0
        self.peak_bytes = 0
        self._registry = None
        self._reset_window()

    def _reset_window(self) -> None:
        shards = self.sharding.num_shards
        self._pending = 0
        self._live_bytes = 0
        if self.rule == "fedavg":
            self._sums: List[_WeightedShardSum] = [
                _WeightedShardSum(self.size) for _ in range(shards)
            ]
            self._rows: List[List[Tuple[int, np.ndarray]]] = []
        else:
            self._sums = []
            self._rows = [[] for _ in range(shards)]

    # -- window state ------------------------------------------------------
    @property
    def pending(self) -> int:
        """Updates folded into the open window so far."""
        return self._pending

    @property
    def ready(self) -> bool:
        """Whether the open window has reached ``config.size``."""
        return self._pending >= self.config.size

    @property
    def live_bytes(self) -> int:
        """Resident bytes of the open window (a running total)."""
        return self._live_bytes

    def _account(self, grown: int) -> None:
        self._live_bytes += grown
        self.peak_bytes = max(self.peak_bytes, self._live_bytes)

    # -- folding -----------------------------------------------------------
    def fold(
        self,
        shard_id: int,
        flat: np.ndarray,
        num_samples: int,
        *,
        staleness: int = 0,
        sort_key: Optional[int] = None,
    ) -> None:
        """Fold one admitted update into the open window, then drop it.

        ``staleness`` is how many commits behind the update's base model
        version is; it selects the fold weight.  ``sort_key`` must be
        unique within a window (the simulator passes the global dispatch
        index) — it is the stable order the robust rules see, which is
        what makes their commit arrival-order invariant.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != self.size:
            raise ValueError("clients disagree on parameter count")
        weight = self.config.weight(staleness)
        registry = get_registry()
        if registry is not self._registry:  # resolve by name once per context
            self._registry = registry
            self._staleness = registry.histogram(
                "fl.staleness", "commits behind the head each folded update was"
            )
            self._folds = registry.counter(
                "fl.buffer.folds", "updates folded into commit buffers"
            )
        self._staleness.observe(float(staleness))
        self._folds.inc(shard=str(shard_id))
        if self.rule == "fedavg":
            shard = self._sums[shard_id]
            before = shard.live_bytes
            shard.fold(flat, weight * float(num_samples), num_samples)
            grown = shard.live_bytes - before
        else:
            key = self._pending if sort_key is None else int(sort_key)
            self._rows[shard_id].append((key, flat.copy()))
            grown = flat.nbytes
        self._pending += 1
        self._account(grown)

    # -- committing --------------------------------------------------------
    def commit(self) -> np.ndarray:
        """Close the window: aggregate, reset, return the new global vector.

        A pure function of the folded ``(update, n, staleness, sort_key)``
        multiset — see the module docstring for the exactness argument.
        """
        if self._pending == 0:
            raise ValueError("no updates buffered to commit")
        with get_tracer().span(
            "fl.buffer.commit",
            commit=self.commits,
            folds=self._pending,
            rule=self.rule,
        ) as span:
            if self.rule == "fedavg":
                flat = self._commit_fedavg()
            else:
                flat = self._commit_robust()
            span.set_attribute("pending", 0)
        get_registry().counter(
            "fl.buffer.commits", "buffered aggregates committed"
        ).inc(rule=self.rule)
        self.commits += 1
        self._reset_window()
        return flat

    def _commit_fedavg(self) -> np.ndarray:
        live = [s for s in self._sums if s.folds > 0]
        root = live[0]
        for other in live[1:]:
            before = root.live_bytes
            root.merge(other)
            self._account(root.live_bytes - before)
        denominator = float(root.weight.value()[0])
        if denominator <= 0:
            raise ValueError("staleness weights summed to a non-positive total")
        return root.vector.value() / denominator

    def _commit_robust(self) -> np.ndarray:
        rows: List[Tuple[int, np.ndarray]] = []
        for shard_rows in self._rows:
            rows.extend(shard_rows)
        keys = [key for key, _ in rows]
        if len(set(keys)) != len(keys):
            raise ValueError("sort keys must be unique within a window")
        rows.sort(key=lambda item: item[0])
        return apply_rule(
            self.rule,
            [row for _, row in rows],
            trim=self.trim,
            num_byzantine=self.num_byzantine,
            clip_norm=self.clip_norm,
        )

    # -- wire accounting ---------------------------------------------------
    def partials(self) -> List[object]:
        """Shard→root messages of the open window, for uplink pricing.

        Same message types the sync tree ships
        (:class:`~repro.fl.sharding.ShardPartial` /
        :class:`~repro.fl.sharding.RobustShardPartial`), so simulators
        price the commit's shard→root hop identically.
        """
        out: List[object] = []
        if self.rule == "fedavg":
            for shard_id, shard in enumerate(self._sums):
                if shard.folds == 0:
                    continue
                out.append(
                    ShardPartial(
                        shard_id=shard_id,
                        total_samples=shard.total_samples,
                        folds=shard.folds,
                        components=(
                            *shard.vector.components,
                            *shard.weight.components,
                        ),
                    )
                )
            return out
        for shard_id, rows in enumerate(self._rows):
            if not rows:
                continue
            out.append(
                RobustShardPartial(
                    shard_id=shard_id,
                    count=len(rows),
                    arrays=(
                        np.array([key for key, _ in rows], dtype=np.float64),
                        np.stack([row for _, row in rows]),
                    ),
                )
            )
        return out

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the open window (and commit cursor)."""
        state: Dict[str, object] = {
            "rule": self.rule,
            "pending": self._pending,
            "commits": self.commits,
            "peak_bytes": self.peak_bytes,
        }
        if self.rule == "fedavg":
            state["sums"] = [
                {
                    "vector": [encode_flat(c) for c in shard.vector.components],
                    "vector_folds": shard.vector.folds,
                    "weight": [encode_flat(c) for c in shard.weight.components],
                    "weight_folds": shard.weight.folds,
                    "total_samples": shard.total_samples,
                }
                for shard in self._sums
            ]
        else:
            state["rows"] = [
                [[int(key), encode_flat(row)] for key, row in rows]
                for rows in self._rows
            ]
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-for-bit."""
        if state["rule"] != self.rule:
            raise ValueError(
                f"checkpointed rule {state['rule']!r} != configured {self.rule!r}"
            )
        self._reset_window()
        self._pending = int(state["pending"])
        self.commits = int(state["commits"])
        self.peak_bytes = int(state["peak_bytes"])
        if self.rule == "fedavg":
            sums = state["sums"]
            if len(sums) != len(self._sums):
                raise ValueError("checkpointed shard count disagrees")
            for shard, snap in zip(self._sums, sums):
                shard.vector._components = [decode_flat(c) for c in snap["vector"]]
                shard.vector.folds = int(snap["vector_folds"])
                shard.weight._components = [float(decode_flat(c)[0]) for c in snap["weight"]]
                shard.weight.folds = int(snap["weight_folds"])
                shard.total_samples = int(snap["total_samples"])
        else:
            rows = state["rows"]
            if len(rows) != len(self._rows):
                raise ValueError("checkpointed shard count disagrees")
            self._rows = [
                [(int(key), decode_flat(row)) for key, row in shard_rows]
                for shard_rows in rows
            ]
        self._live_bytes = sum(s.live_bytes for s in self._sums) + sum(
            row.nbytes for rows in self._rows for _, row in rows
        )
