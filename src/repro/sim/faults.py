"""Fault injection for simulated FL rounds.

A :class:`FaultPlan` decides, per ``(round, client)``, whether that client
misbehaves this round and how.  The taxonomy covers the failure modes a
TEE-backed FL fleet actually exhibits:

* ``drop`` — the client goes silent mid-round (crash, network partition);
* ``straggle`` — the client finishes, but far too late for the deadline;
* ``corrupt`` — the normal-world relay flips bits in the update payload
  (detected server-side, retried — the sealed path makes this loud);
* ``exhaust_pool`` — the enclave's secure memory pool runs out mid-cycle
  (the paper's 3–5 MB budget, §3.3) and local training aborts;
* ``fail_attestation`` — the device can no longer produce a valid quote
  (tampered TA, rolled-back firmware) and must be evicted.

Sampled faults are derived from ``(seed, round, client)`` alone — never from
query order or an evolving generator — so any subset of clients can be
interrogated in any order and two runs with the same seed realise the exact
same fault set.  Transient faults (``corrupt``, ``exhaust_pool``) hit only a
client's first attempt of the round, so bounded retry can win; ``drop`` and
``straggle`` persist for the round.

Beyond crash-style faults, a plan can mark a fraction of the fleet
**Byzantine** (:class:`AttackKind`): those clients still complete the round
on time, but the *update they produce* is hostile — sign-flipped, scaled,
noise-drowned, or a colluding copy of a shared poisoned payload.  Attacker
identity is persistent (drawn once per client from its own stream) so the
same clients attack every round and the server's reputation ledger can
catch repeat offenders; the attack payload's randomness is keyed on
``(seed, round, client)`` like everything else, so a retried attempt
re-sends the exact same poisoned bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from ..fl.config import ConfigError, knob
from . import keyed

__all__ = ["FaultKind", "FaultRates", "FaultPlan", "AttackKind", "apply_attack"]

# Stream tags keeping fault draws independent of every other (seed, round)
# derived stream in the simulator.
_STREAM_FAULT = 0xFA017
_STREAM_SHARD_FAULT = 0xFA5D
_STREAM_ATTACKER = 0xB12A7
_STREAM_ATTACK_PAYLOAD = 0xB12A8

_CLIENT_RATES = ("dropout", "straggler", "corrupt", "pool_exhaust", "attestation")


class FaultKind(enum.Enum):
    """One way a simulated client can misbehave during a round."""

    DROP = "drop"
    STRAGGLE = "straggle"
    CORRUPT = "corrupt"
    EXHAUST_POOL = "exhaust_pool"
    FAIL_ATTESTATION = "fail_attestation"

    @property
    def transient(self) -> bool:
        """Whether a retry of the same round can succeed."""
        return self in (FaultKind.CORRUPT, FaultKind.EXHAUST_POOL)


class AttackKind(enum.Enum):
    """One way a Byzantine client poisons the update it produces.

    All attacks transform the client's honest *delta* (``update − global``);
    the attacker behaves normally at the protocol level — attests, meets
    deadlines — so only admission control and robust aggregation can stop
    it.

    * ``sign_flip`` — send ``global − delta``: norm-preserving (slips past
      any norm ceiling), pulls plain FedAvg straight away from the honest
      direction;
    * ``scale`` — send ``global + λ·delta``: the classic model-replacement
      boost; loud under a norm ceiling, devastating without one;
    * ``gauss_noise`` — drown the delta in large seeded Gaussian noise;
    * ``collude`` — every colluder sends the *same* crafted payload (drawn
      once per round, no client in the key), concentrating their mass on
      one poisoned point — the case that stresses Krum's neighbour scoring
      and its lowest-index tie-break.
    """

    SIGN_FLIP = "sign_flip"
    SCALE = "scale"
    GAUSS_NOISE = "gauss_noise"
    COLLUDE = "collude"


#: The attack names a run config accepts.
ATTACK_KINDS = tuple(kind.value for kind in AttackKind)


def apply_attack(
    kind: AttackKind,
    delta: np.ndarray,
    *,
    seed: int,
    round_index: int,
    client_index: int,
    strength: float = 10.0,
) -> np.ndarray:
    """The poisoned delta a Byzantine client sends instead of ``delta``.

    A pure function of ``(kind, delta, seed, round, client, strength)`` —
    ``collude`` drops the client from the key so all colluders of a round
    produce bitwise-identical payloads.
    """
    kind = AttackKind(kind)
    if kind is AttackKind.SIGN_FLIP:
        return -delta
    if kind is AttackKind.SCALE:
        return float(strength) * delta
    if kind is AttackKind.GAUSS_NOISE:
        rng = np.random.default_rng(
            (int(seed), _STREAM_ATTACK_PAYLOAD, int(round_index), int(client_index))
        )
        rms = (
            float(np.linalg.norm(delta)) / float(np.sqrt(delta.size))
            if delta.size
            else 0.0
        )
        return delta + float(strength) * rms * rng.standard_normal(delta.shape)
    rng = np.random.default_rng(
        (int(seed), _STREAM_ATTACK_PAYLOAD, int(round_index))
    )
    magnitude = float(strength) * float(np.linalg.norm(delta))
    direction = rng.standard_normal(delta.shape)
    norm = float(np.linalg.norm(direction))
    return (magnitude / norm) * direction if norm > 0 else delta


@dataclass(frozen=True)
class FaultRates:
    """Per-round probability of each client fault kind, and of a dead shard.

    The five client rates are per ``(round, client)`` and realise at most
    one fault per cell, so they sum to at most 1.  ``shard_down`` is per
    ``(round, shard)`` on a stream of its own.
    """

    dropout: float = knob(0.0, "dropout rate")
    straggler: float = knob(0.0, "straggler rate")
    corrupt: float = knob(0.0, "payload-corruption rate")
    pool_exhaust: float = knob(0.0, "secure-pool exhaustion rate")
    attestation: float = knob(0.0, "attestation-failure rate")
    shard_down: float = knob(0.0, "per-round probability a shard aggregator is dead")

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{field.name} rate must be in [0, 1], got {value}")
        if self.total() > 1.0 + 1e-12:
            named = [name for name in _CLIENT_RATES if getattr(self, name) > 0]
            raise ConfigError(
                f"{' + '.join(named)} sum to {self.total()} > 1", *named
            )

    def total(self) -> float:
        """Probability that a client realises some fault in a round."""
        return sum(getattr(self, name) for name in _CLIENT_RATES)

    # Fixed realisation order: a single uniform draw is bucketed against
    # these cumulative thresholds, so changing one rate never reshuffles
    # which clients realise the *other* kinds.
    def thresholds(self) -> Tuple[Tuple[float, FaultKind], ...]:
        out = []
        edge = 0.0
        for rate, kind in (
            (self.dropout, FaultKind.DROP),
            (self.straggler, FaultKind.STRAGGLE),
            (self.corrupt, FaultKind.CORRUPT),
            (self.pool_exhaust, FaultKind.EXHAUST_POOL),
            (self.attestation, FaultKind.FAIL_ATTESTATION),
        ):
            edge += rate
            if rate > 0:
                out.append((edge, kind))
        return tuple(out)


class FaultPlan:
    """Deterministic fault schedule: sampled rates plus explicit injections.

    Parameters
    ----------
    rates:
        Background fault probabilities applied to every (round, client),
        and the per-round probability ``shard_down`` that a *shard
        aggregator* (a node of the hierarchical aggregation tree, not a
        client) is dead for the whole round.  An upload arriving at a dead
        shard is lost, which feeds the client back into the ordinary
        retry/quorum machinery; retries are re-routed to a surviving shard.
    seed:
        Seed for the sampled realisation; the fault of a given
        ``(round, client)`` is a pure function of ``(seed, round, client)``.
    attackers:
        The run config (a :class:`~repro.sim.SimConfig` or
        :class:`~repro.serve.LoadSpec`) whose ``byzantine`` fraction of the
        fleet mounts its ``attack`` (an :class:`AttackKind`) at
        ``attack_strength`` (λ for ``scale``, the noise/offset multiplier
        otherwise); ``None`` is an honest fleet.  Attacker identity is
        drawn once per client from ``(seed, client)`` on a dedicated
        stream — persistent across rounds, so reputation tracking bites —
        and is independent of the crash-fault draws.
    """

    def __init__(
        self, rates: Optional[FaultRates] = None, seed: int = 0, attackers=None
    ) -> None:
        self.rates = rates or FaultRates()
        self._thresholds = self.rates.thresholds()  # rates are frozen
        self.seed = int(seed)
        self.shard_down = self.rates.shard_down
        # An honest fleet, whose pinned attackers (inject_attack) strike at 10.
        byzantine, attack, strength = 0.0, "sign_flip", 10.0
        if attackers is not None:
            byzantine, attack = attackers.byzantine, attackers.attack
            strength = attackers.attack_strength
        self.byzantine = float(byzantine)
        self.attack = AttackKind(attack)
        self.attack_strength = float(strength)
        self._explicit: Dict[Tuple[int, int], Optional[FaultKind]] = {}
        self._explicit_shards: Dict[Tuple[int, int], bool] = {}
        self._explicit_attackers: Dict[int, Optional[AttackKind]] = {}
        self._draws = keyed.Uniforms()

    def prefetch(self, rounds, clients) -> None:
        """Evaluate a batch of cells' fault draws in one kernel call (either
        argument may be a scalar): a bounded memo of a pure function —
        :meth:`fault_for` returns the same values, injections still win."""
        if self._thresholds:
            self._draws.prefetch(self.seed, _STREAM_FAULT, rounds, clients)

    def inject(self, round_index: int, client_index: int, kind) -> "FaultPlan":
        """Pin a specific fault (or ``None`` to force health) for one cell."""
        fault = FaultKind(kind) if kind is not None else None
        self._explicit[(int(round_index), int(client_index))] = fault
        return self

    def fault_for(self, round_index: int, client_index: int) -> Optional[FaultKind]:
        """The fault this client realises this round (None = healthy)."""
        key = (int(round_index), int(client_index))
        if key in self._explicit:
            return self._explicit[key]
        if not self._thresholds:
            return None
        draw = self._draws.draw((self.seed, _STREAM_FAULT, *key))
        for edge, kind in self._thresholds:
            if draw < edge:
                return kind
        return None

    def inject_attack(self, client_index: int, kind) -> "FaultPlan":
        """Pin one client Byzantine (or ``None`` to force honesty)."""
        attack = AttackKind(kind) if kind is not None else None
        self._explicit_attackers[int(client_index)] = attack
        return self

    def attack_for(self, client_index: int) -> Optional[AttackKind]:
        """The attack this client mounts every round (None = honest).

        A pure function of ``(seed, client)`` on its own stream: attacker
        identity never depends on the round, on query order, or on which
        crash faults realised — so raising ``byzantine`` from 0.2 to 0.3
        only *adds* attackers, it never reshuffles the existing ones.
        """
        key = int(client_index)
        if key in self._explicit_attackers:
            return self._explicit_attackers[key]
        if self.byzantine <= 0.0:
            return None
        draw = keyed.generator((self.seed, _STREAM_ATTACKER, key)).random()
        return self.attack if draw < self.byzantine else None

    def attack_delta(
        self, round_index: int, client_index: int, delta: np.ndarray
    ) -> np.ndarray:
        """Apply this client's attack to its honest flat delta."""
        kind = self.attack_for(client_index)
        if kind is None:
            return delta
        return apply_attack(
            kind,
            delta,
            seed=self.seed,
            round_index=round_index,
            client_index=client_index,
            strength=self.attack_strength,
        )

    def delay_factor(
        self, round_index: int, client_index: int, straggler_factor: float
    ) -> float:
        """Slow-down multiplier this client's attempt experiences.

        ``straggler_factor`` when ``(round, client)`` realises
        :attr:`FaultKind.STRAGGLE`, else exactly ``1.0``.  The sync engine
        uses it against the round deadline (the straggler misses and is
        dropped); the async engine uses the *same* factor but has no
        deadline — the slow update arrives late, is genuinely stale
        (staleness > 0 if commits advanced meanwhile), and is folded in
        with its staleness weight instead of being discarded.
        """
        if self.fault_for(round_index, client_index) is FaultKind.STRAGGLE:
            return float(straggler_factor)
        return 1.0

    def inject_shard(
        self, round_index: int, shard_index: int, down: bool = True
    ) -> "FaultPlan":
        """Pin a shard aggregator dead (or alive) for one round."""
        key = (int(round_index), int(shard_index))
        self._explicit_shards[key] = bool(down)
        return self

    def shard_fault_for(self, round_index: int, shard_index: int) -> bool:
        """Whether this shard aggregator is dead this round.

        Like client faults, a pure function of ``(seed, round, shard)`` —
        drawn from its own stream, so enabling shard faults never
        reshuffles which *clients* misbehave.
        """
        key = (int(round_index), int(shard_index))
        if key in self._explicit_shards:
            return self._explicit_shards[key]
        if self.shard_down <= 0.0:
            return False
        draw = keyed.generator((self.seed, _STREAM_SHARD_FAULT, *key)).random()
        return draw < self.shard_down

    def describe(self) -> str:
        active = [
            f"{field.name}={getattr(self.rates, field.name):g}"
            for field in fields(self.rates)
            if getattr(self.rates, field.name) > 0
        ]
        if self.byzantine > 0:
            active.append(f"byzantine={self.byzantine:g}:{self.attack.value}")
        pinned_cells = (
            len(self._explicit)
            + len(self._explicit_shards)
            + len(self._explicit_attackers)
        )
        pinned = f", {pinned_cells} pinned" if pinned_cells else ""
        return f"FaultPlan(seed={self.seed}, {', '.join(active) or 'no faults'}{pinned})"
