"""Typed, frozen configuration for the FL coordinator.

Small frozen dataclasses that validate on construction, compose
(`ServerConfig` nests `RoundConfig`) and travel as plain data.
``FLServer(config=...)`` is the only spelling; `ShardingConfig` and
`BufferConfig` shape the simulator's and the coordinator's aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import TYPE_CHECKING, Optional

from .robust import RULES

if TYPE_CHECKING:  # annotations only: both modules import require_finite
    from .admission import AdmissionConfig, ReputationConfig

__all__ = ["BufferConfig", "RoundConfig", "ShardingConfig", "ServerConfig"]

#: Staleness-weighting families the buffered (async) aggregator knows.
STALENESS_KINDS = ("constant", "polynomial")


class ConfigError(ValueError):
    """A refused config value.

    ``fields`` are the config fields the message names, spelt as in the
    message (default: its first word), so a front end can respell them:
    the CLI writes each as the flag that sets it.
    """

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields or (message.split()[0],)


def knob(default=None, help: str = "", *, requires=None, choices=None, metavar=None):
    """A run-config field that is also a flag of its ``repro`` command.

    ``help`` is the flag's help text.  ``requires`` names the switch the
    field means nothing without: a field (on when truthy) or ``(field,
    value, ...)`` (on when it holds one of the values); moving the field
    off its default while the switch is off is a :class:`ConfigError`
    (:func:`check_switches`).  ``choices`` and ``metavar`` go to the flag.
    """
    metadata = dict(help=help, requires=requires, choices=choices, metavar=metavar)
    return field(default=default, metadata=metadata)


def section(cls):
    """A nested config whose knobs are knobs of the enclosing run too."""
    return field(default_factory=cls, metadata={"section": cls})


def knob_fields(cls, path=()):
    """``(path, field)`` for every knob of config class ``cls``, in
    declaration order, walking into its sections."""
    for item in fields(cls):
        if "section" in item.metadata:
            yield from knob_fields(item.metadata["section"], path + (item.name,))
        elif "help" in item.metadata:
            yield path + (item.name,), item


def knob_type(item) -> type:
    """The type a knob's flag parses: ``int``, ``float``, ``str``, or
    ``bool`` for a switch."""
    name = item.type.removeprefix("Optional[").removesuffix("]")
    return {"int": int, "float": float, "str": str, "bool": bool}[name]


def compose(cls, values):
    """``cls`` with every knob in ``values`` (keyed by field name) set, its
    sections built the same way, and everything else at its default."""
    return cls(**{
        item.name: (
            compose(item.metadata["section"], values)
            if "section" in item.metadata
            else values[item.name]
        )
        for item in fields(cls)
        if "section" in item.metadata or item.name in values
    })


def check_switches(config) -> None:
    """Refuse a knob moved off its default while its switch is off.

    Runs over ``config`` and its sections as one namespace, so a knob may
    depend on a switch declared in another section.
    """
    values = {
        item.name: (item, reduce(getattr, path, config))
        for path, item in knob_fields(type(config))
    }
    for item, value in values.values():
        requires = item.metadata.get("requires")
        if requires is None or value == item.default:
            continue
        switch, *allowed = (requires,) if isinstance(requires, str) else requires
        state = values[switch][1]
        if (state in allowed) if allowed else state:
            continue
        need = " ".join([switch, "|".join(allowed)]) if allowed else switch
        raise ConfigError(f"{item.name} requires {need}", item.name, switch)


def require_finite(config) -> None:
    """Refuse a config dataclass whose float fields hold a NaN or infinity.

    Every comparison with NaN is false, so a range check written as
    ``if value <= 0: raise`` lets NaN through; callers run this first.
    """
    for item in fields(config):
        value = getattr(config, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{item.name} must be finite, got {value}")


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
        require_finite(self)
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


@dataclass(frozen=True)
class RoundConfig:
    """Per-cycle behaviour: admission and aggregation rule.

    Attributes
    ----------
    rule:
        Aggregation rule — any of :data:`repro.fl.robust.RULES`.
        ``fedavg`` is the exact sample-weighted streaming reduce; the rest
        are Byzantine-robust rules applied over the (unweighted) flat
        update vectors.
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

    rule: str = "fedavg"
    trim: int = 1
    num_byzantine: int = 1
    clip_norm: Optional[float] = None
    admission: Optional[AdmissionConfig] = None
    reputation: Optional[ReputationConfig] = None

    def __post_init__(self) -> None:
        require_finite(self)
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
        Seed of :func:`repro.api.build_server`'s default global model.
    round:
        Per-cycle admission and aggregation knobs.
    """

    allow_legacy: bool = False
    seed: int = 7
    round: RoundConfig = field(default_factory=RoundConfig)
