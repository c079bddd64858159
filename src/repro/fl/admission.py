"""Update admission control: the gate every client update passes first.

GradSec's TEE shields layers from an *observer*; a production coordinator
must additionally survive clients that *send* hostile updates — poisoned,
scaled, sign-flipped, or numerically broken (SEAR [57] and the FL security
survey make the same point).  This module is the first line of that
defence: before any update reaches an accumulator it is checked for

* **structure** — layer count, key set, and per-key shapes must match the
  global model (a malformed payload can otherwise crash or skew the fold).
  That rule is the only one that reads a :data:`~repro.nn.model.WeightsList`,
  so it runs where one arrives — the FL server's merge of plain and
  unsealed layers — and hands the gate ``None`` for a mismatch; every other
  rule reads the update as a flat float64 vector;
* **numerical health** — NaN/Inf anywhere poisons every downstream mean;
* **norm ceiling** — the L2 norm of the update's *delta* from the current
  global weights is bounded; over-norm deltas are either rejected or
  rescaled onto the ceiling (``clip=True``), the standard norm-bounding
  defence against scaling attacks.

Every rejection feeds the ``fl.admission.*`` metrics and a per-client
:class:`ReputationTracker`: repeated strikes quarantine a client for a few
rounds, and repeated quarantines evict it permanently.  Both the controller
and the tracker are deterministic — no randomness, no wall clock — so a
seeded run admits and quarantines identically every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..obs import get_registry
from .config import ConfigError, require_finite

__all__ = [
    "AdmissionConfig",
    "AdmissionDecision",
    "AdmissionController",
    "ReputationConfig",
    "ReputationTracker",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """What the admission gate enforces.

    Attributes
    ----------
    max_norm:
        L2 ceiling on ``||update - global||``; ``None`` disables the check.
    clip:
        When an update exceeds ``max_norm``: ``True`` rescales its delta
        onto the ceiling and admits it, ``False`` rejects it.

    An update containing NaN or Inf anywhere is always rejected.
    """

    max_norm: Optional[float] = None
    clip: bool = False

    def __post_init__(self) -> None:
        require_finite(self)
        if self.max_norm is not None and self.max_norm <= 0:
            raise ConfigError("max_norm must be positive when set")


@dataclass(frozen=True)
class ReputationConfig:
    """Strike/quarantine/eviction thresholds.

    ``max_strikes`` rejections send a client into quarantine for
    ``quarantine_rounds`` rounds (strikes reset on entry); after
    ``evict_after`` quarantines the client is evicted permanently.  An
    admitted update heals one strike, so a client on a flaky link does not
    drift into quarantine from occasional rejects.
    """

    max_strikes: int = 3
    quarantine_rounds: int = 2
    evict_after: int = 3

    def __post_init__(self) -> None:
        if self.max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")
        if self.quarantine_rounds < 1:
            raise ValueError("quarantine_rounds must be >= 1")
        if self.evict_after < 1:
            raise ValueError("evict_after must be >= 1")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``flat`` carries the vector to fold when admitted — the original
    update, or the norm-clipped rewrite when ``clipped`` — and is ``None``
    on rejection.  ``reason`` is one of the ``REJECT_*`` constants below.
    """

    admitted: bool
    flat: Optional[np.ndarray] = None
    reason: Optional[str] = None
    clipped: bool = False
    norm: float = 0.0


REJECT_STRUCTURE = "structure"
REJECT_NONFINITE = "nonfinite"
REJECT_NORM = "norm"


class AdmissionController:
    """Checks every incoming update against the current global model.

    Parameters
    ----------
    config:
        What to enforce (see :class:`AdmissionConfig`).

    The controller registers its counters on construction so a metrics
    snapshot shows ``fl.admission.*`` even for an all-healthy run.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        registry = get_registry()
        self._checked = registry.counter(
            "fl.admission.checked", "updates inspected by admission control"
        )
        self._rejected = registry.counter(
            "fl.admission.rejected", "updates refused by admission control"
        )
        self._clipped = registry.counter(
            "fl.admission.clipped", "updates rescaled onto the norm ceiling"
        )

    def check(
        self,
        client_id: str,
        flat: Optional[np.ndarray],
        *,
        reference: Optional[np.ndarray] = None,
    ) -> AdmissionDecision:
        """Admit, clip, or reject one update vector.

        ``flat`` is ``None`` when the update did not fit the model's layout
        (its layer count, key set or a shape differed where it was merged):
        that is the ``structure`` rejection.  ``reference`` is the global
        vector the update trained from; the norm ceiling applies to the
        delta against it (and clipping rewrites the update as ``reference +
        clipped_delta``).  Without a reference the ceiling applies to the
        raw update vector.
        """
        self._checked.inc(client=client_id)
        cfg = self.config
        if flat is None:
            return self._reject(client_id, REJECT_STRUCTURE)
        if not np.isfinite(flat).all():
            return self._reject(client_id, REJECT_NONFINITE)
        norm = 0.0
        if cfg.max_norm is not None:
            delta = flat if reference is None else flat - reference
            norm = float(np.linalg.norm(delta))
            if norm > cfg.max_norm:
                if not cfg.clip:
                    return self._reject(client_id, REJECT_NORM, norm=norm)
                clipped = delta * (cfg.max_norm / norm)
                if reference is not None:
                    clipped = reference + clipped
                self._clipped.inc(client=client_id)
                return AdmissionDecision(True, clipped, clipped=True, norm=norm)
        return AdmissionDecision(True, flat, norm=norm)

    def _reject(
        self, client_id: str, reason: str, norm: float = 0.0
    ) -> AdmissionDecision:
        self._rejected.inc(client=client_id, reason=reason)
        return AdmissionDecision(admitted=False, reason=reason, norm=norm)


@dataclass
class _Standing:
    strikes: int = 0
    quarantines: int = 0
    quarantined_until: int = -1  # first round the client is free again
    evicted: bool = False


class ReputationTracker:
    """Per-client strike ledger with quarantine and permanent eviction.

    Rounds are identified by a monotonically increasing integer (the FL
    cycle); all state transitions are pure functions of the sequence of
    recorded events, so a seeded run reproduces quarantines exactly.
    ``state_dict`` / ``load_state`` round-trip the ledger through a JSON
    checkpoint, which is what lets a resumed simulation keep quarantining
    the same clients.
    """

    def __init__(self, config: Optional[ReputationConfig] = None) -> None:
        self.config = config or ReputationConfig()
        self._standing: Dict[str, _Standing] = {}
        registry = get_registry()
        self._quarantined_counter = registry.counter(
            "fl.reputation.quarantined", "clients entering strike quarantine"
        )
        self._evicted_counter = registry.counter(
            "fl.reputation.evicted", "clients permanently evicted by reputation"
        )

    def _get(self, client_id: str) -> _Standing:
        standing = self._standing.get(client_id)
        if standing is None:
            standing = _Standing()
            self._standing[client_id] = standing
        return standing

    # -- event recording ---------------------------------------------------
    def record_rejection(self, client_id: str, round_index: int) -> None:
        """One admission rejection; may tip the client into quarantine."""
        standing = self._get(client_id)
        if standing.evicted:
            return
        standing.strikes += 1
        if standing.strikes < self.config.max_strikes:
            return
        standing.strikes = 0
        standing.quarantines += 1
        if standing.quarantines >= self.config.evict_after:
            standing.evicted = True
            self._evicted_counter.inc(client=client_id)
            return
        standing.quarantined_until = (
            int(round_index) + 1 + self.config.quarantine_rounds
        )
        self._quarantined_counter.inc(client=client_id)

    def record_admission(self, client_id: str) -> None:
        """One admitted update heals one strike."""
        standing = self._standing.get(client_id)
        if standing is not None and standing.strikes > 0:
            standing.strikes -= 1

    # -- queries -----------------------------------------------------------
    def status(self, client_id: str, round_index: int) -> str:
        standing = self._standing.get(client_id)
        if standing is None:
            return "ok"
        if standing.evicted:
            return "evicted"
        if int(round_index) < standing.quarantined_until:
            return "quarantined"
        return "ok"

    def is_blocked(self, client_id: str, round_index: int) -> bool:
        return self.status(client_id, round_index) != "ok"

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, List]:
        """JSON-safe dump of the full ledger (sorted for byte stability)."""
        return {
            "clients": [
                [
                    cid,
                    standing.strikes,
                    standing.quarantines,
                    standing.quarantined_until,
                    standing.evicted,
                ]
                for cid, standing in sorted(self._standing.items())
            ]
        }

    def load_state(self, state: Dict[str, List]) -> None:
        self._standing = {
            cid: _Standing(
                strikes=int(strikes),
                quarantines=int(quarantines),
                quarantined_until=int(until),
                evicted=bool(evicted),
            )
            for cid, strikes, quarantines, until, evicted in state.get(
                "clients", []
            )
        }
