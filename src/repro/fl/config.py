"""Typed, frozen configuration for the FL coordinator.

Three PRs of growth left :class:`~repro.fl.server.FLServer` with a sprawl
of loose keyword arguments (retry policy, quorum, re-attestation, sampling
seed, …).  This module is the redesigned surface: small frozen dataclasses
that validate on construction, compose (`ServerConfig` nests `RoundConfig`
and `ShardingConfig`), and travel as plain data.  ``FLServer(config=...)``
is the only spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .admission import AdmissionConfig, ReputationConfig
from .resilience import RetryPolicy
from .robust import RULES

__all__ = ["BufferConfig", "RoundConfig", "ShardingConfig", "ServerConfig"]

#: Staleness-weighting families the buffered (async) aggregator knows.
STALENESS_KINDS = ("constant", "polynomial")


def require_finite(config) -> None:
    """Refuse a config dataclass whose float fields hold a NaN or infinity.

    Every comparison with NaN is false, so a range check written as
    ``if value <= 0: raise`` lets NaN through; callers run this first.
    """
    for item in fields(config):
        value = getattr(config, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value}")


@dataclass(frozen=True)
class BufferConfig:
    """FedBuff-style commit buffer: size ``K`` plus staleness weighting.

    The asynchronous pipeline folds admitted updates as they arrive and
    commits an aggregate whenever ``size`` of them have accumulated.  An
    update trained against an older global model (staleness ``tau`` = commits
    since its base version) is folded in with weight :meth:`weight` instead
    of being dropped.

    Attributes
    ----------
    size:
        ``K`` — admitted updates per commit.
    staleness:
        Weighting family: ``constant`` folds every update with weight 1
        (the exact sample-weighted mean — bitwise-identical to the sync
        :func:`~repro.fl.aggregation.fedavg` when ``size`` equals the sync
        cohort); ``polynomial`` decays late updates as
        ``(1 + tau) ** -exponent``.
    exponent:
        Decay exponent ``a`` of the polynomial family (ignored by
        ``constant``).
    """

    size: int = 32
    staleness: str = "constant"
    exponent: float = 0.5

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("buffer size must be >= 1")
        if self.staleness not in STALENESS_KINDS:
            raise ValueError(
                f"unknown staleness weighting {self.staleness!r}; "
                f"expected one of {STALENESS_KINDS}"
            )
        if self.exponent < 0:
            raise ValueError("staleness exponent cannot be negative")

    def weight(self, staleness: float) -> float:
        """The fold weight ``w(tau)`` of an update ``tau`` commits stale.

        A pure function of ``(config, staleness)`` — the weighted fold stays
        a deterministic function of the update multiset.
        """
        tau = float(staleness)
        if tau < 0:
            raise ValueError("staleness cannot be negative")
        if self.staleness == "constant":
            return 1.0
        return (1.0 + tau) ** (-self.exponent)


@dataclass(frozen=True)
class ShardingConfig:
    """How aggregation is spread over a hierarchical shard tree.

    Attributes
    ----------
    num_shards:
        Leaf aggregators between clients and the root.  ``1`` is the flat
        topology (a single shard *is* the root); the aggregate is bitwise
        identical for every value because the streaming reduce is exact
        (see :mod:`repro.fl.aggregation`).
    track_memory:
        Publish per-shard ``fl.shard.bytes.live`` / ``.peak`` gauges on
        every fold (cheap, but measurable at 10^5 clients — switchable).
    """

    num_shards: int = 1
    track_memory: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")

    @property
    def flat(self) -> bool:
        return self.num_shards == 1


@dataclass(frozen=True)
class RoundConfig:
    """Per-cycle behaviour: failure tolerance, admission, aggregation rule.

    Attributes
    ----------
    retry:
        When given, client failures are retried per
        :class:`~repro.fl.resilience.RetryPolicy` and the round aggregates
        whatever quorum delivered; ``None`` keeps the fail-fast behaviour.
    rule:
        Aggregation rule — any of :data:`repro.fl.robust.RULES`.
        ``fedavg`` is the exact sample-weighted streaming reduce; the rest
        are Byzantine-robust rules applied over the (unweighted) flat
        update vectors, composed with sharding by the same
        :class:`~repro.fl.sharding.HierarchicalAggregator`.
    trim / num_byzantine / clip_norm:
        Rule parameters: extremes dropped per side (``trimmed_mean``),
        assumed attacker count (``krum``), and the norm ceiling for
        ``clipped_fedavg`` (``None`` self-calibrates to the median norm).
    admission:
        When given, every collected update passes the
        :class:`~repro.fl.admission.AdmissionController` gate before it is
        folded; rejects strike the per-client reputation ledger.
    reputation:
        Strike/quarantine/eviction thresholds (only meaningful with
        ``admission``; defaults are used when omitted).
    """

    retry: Optional[RetryPolicy] = None
    rule: str = "fedavg"
    trim: int = 1
    num_byzantine: int = 1
    clip_norm: Optional[float] = None
    admission: Optional[AdmissionConfig] = None
    reputation: Optional[ReputationConfig] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(
                f"unknown aggregation rule {self.rule!r}; expected one of {RULES}"
            )
        if self.trim < 0:
            raise ValueError("trim must be non-negative")
        if self.num_byzantine < 0:
            raise ValueError("num_byzantine must be non-negative")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive when set")


@dataclass(frozen=True)
class ServerConfig:
    """Everything an :class:`~repro.fl.server.FLServer` is configured by.

    Attributes
    ----------
    allow_legacy:
        Hybrid deployments admit non-TEE clients (future-work mode).
    seed:
        Seed of the server's own generator (participant sampling); all
        server-side randomness flows from it.
    round:
        Per-cycle resilience/admission knobs.
    sharding:
        Aggregation-tree topology.
    """

    allow_legacy: bool = False
    seed: int = 7
    round: RoundConfig = field(default_factory=RoundConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
