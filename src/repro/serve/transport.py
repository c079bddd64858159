"""Seeded chaos transport and the exactly-once delivery primitives.

The serve pipeline up to PR 9 assumed a perfect channel: every frame the
:class:`~repro.serve.loadgen.LoadGenerator` produced reached
:meth:`~repro.serve.coordinator.Coordinator.submit` intact, in order,
exactly once.  Real device fleets get none of that.  This module supplies
the two pieces that close the gap:

* :class:`ChaosChannel` — a fault-injecting link on the virtual clock.
  Every physical send draws at most one fault from a dedicated
  ``(seed, stream, key, attempt)`` rng stream (there is no evolving
  generator state to checkpoint) and turns into zero, one, or two
  scheduled deliveries:

  ========== ==========================================================
  fault      effect
  ========== ==========================================================
  drop       the frame vanishes (the client retransmits on timeout)
  duplicate  a second identical copy lands within the reorder window
  reorder    delivery is delayed by up to ``reorder_window`` seconds
  corrupt    1–3 distinct bit flips (always within CRC-32's guaranteed
             detection bound, so the receiver *must* reject it)
  truncate   the frame is cut short mid-byte-stream
  replay     a stale identical copy lands long after the original
  ========== ==========================================================

  Pending deliveries are plain ``(at, payload)`` state: they checkpoint
  through ``state_dict`` and re-schedule on restore, so a ``kill -9``
  mid-flight resumes byte-identically.

* :class:`TenantBreaker` — a per-tenant error-budget circuit breaker.
  Corrupt/truncated frames attributed to a tenant count against a
  sliding virtual-time error budget; exceeding it OPENs the breaker and
  the coordinator sheds that tenant's deliveries (no ack — the client
  retries later) instead of burning cycles on a flapping link.  After a
  cooldown the breaker goes HALF_OPEN and a run of clean probes closes
  it.  Shedding only ever *delays* delivery: the exactly-once ledger
  makes the committed weights independent of when a frame finally lands.

Exactly-once = at-least-once (ack-driven retransmission with bounded
exponential backoff, schedule shared with
:class:`repro.fl.resilience.RetryPolicy`) + at-most-once (the
coordinator's idempotent dedup ledger keyed on the v2 frame-header
dispatch id).
"""

from __future__ import annotations

import base64
import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..fl.config import require_finite
from ..obs import get_registry

__all__ = [
    "ChaosConfig",
    "ChaosChannel",
    "BreakerConfig",
    "BreakerState",
    "TenantBreaker",
]

# CRC-32 (poly 0x04C11DB7) has Hamming distance 4 up to this many bits:
# every 1- and 2-bit error is detected at any length we can frame, and
# every 3-bit error is detected below this bound.  The corruption fault
# stays inside the bound so "CRC catches every injected flip" is a
# guarantee, not a probability.
_CRC32_HD4_BITS = 91607

_FAULT_KINDS = ("drop", "duplicate", "reorder", "corrupt", "truncate", "replay")


@dataclass(frozen=True)
class ChaosConfig:
    """Per-send fault probabilities (at most one fault per send)."""

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    truncate: float = 0.0
    replay: float = 0.0
    reorder_window: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        for kind in _FAULT_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{kind} probability must be in [0, 1]")
        if self.total > 1.0:
            raise ValueError("fault probabilities must sum to <= 1")
        if self.reorder_window <= 0:
            raise ValueError("reorder_window must be positive")

    @property
    def total(self) -> float:
        return sum(getattr(self, kind) for kind in _FAULT_KINDS)

    @classmethod
    def uniform(cls, rate: float, *, reorder_window: float = 1.0) -> "ChaosConfig":
        """Split one aggregate fault ``rate`` evenly across all six kinds."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        share = rate / len(_FAULT_KINDS)
        return cls(
            drop=share,
            duplicate=share,
            reorder=share,
            corrupt=share,
            truncate=share,
            replay=share,
            reorder_window=reorder_window,
        )


class ChaosChannel:
    """One direction of a lossy link, entirely on the virtual clock.

    ``send`` draws the fault for ``(key, attempt)`` and schedules the
    resulting deliveries on ``loop``; each physical copy put on the wire
    (originals, duplicates, replays, retransmissions, even dropped and
    truncated copies) is charged through ``charge`` so byte accounting
    reflects real uplink cost.  ``deliver`` receives the payload at its
    virtual arrival time.

    The channel never inspects payloads; it only remembers which keys it
    has already delivered *clean* so ``counters["dup_clean"]`` counts
    redundant clean deliveries — the channel-side twin of the
    coordinator's dedup-hit counter (they match whenever nothing was
    shed or refused).
    """

    def __init__(
        self,
        config: ChaosConfig,
        *,
        seed: int,
        stream: int,
        loop,
        deliver: Callable[[bytes], None],
        charge: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.config = config
        self.seed = int(seed)
        self.stream = int(stream)
        self.loop = loop
        self.deliver = deliver
        self.charge = charge
        self.counters: Dict[str, int] = {
            "sends": 0,
            "copies": 0,
            "deliveries": 0,
            "dup_clean": 0,
            "drops": 0,
            "duplicates": 0,
            "reorders": 0,
            "corruptions": 0,
            "truncations": 0,
            "replays": 0,
        }
        self._delivered: Set[int] = set()
        self._pending: Dict[int, Tuple[float, bytes, Optional[int]]] = {}
        self._next_pending = 0
        registry = get_registry()
        self._m_drops = registry.counter(
            "serve.transport.drops", "frames dropped in transit"
        )
        self._m_duplicates = registry.counter(
            "serve.transport.duplicates", "frames duplicated in transit"
        )
        self._m_reorders = registry.counter(
            "serve.transport.reorders", "frames delayed out of order"
        )
        self._m_corruptions = registry.counter(
            "serve.transport.corruptions", "frames bit-flipped in transit"
        )
        self._m_truncations = registry.counter(
            "serve.transport.truncations", "frames truncated in transit"
        )
        self._m_replays = registry.counter(
            "serve.transport.replays", "stale frame copies replayed"
        )

    # -- sending -----------------------------------------------------------
    def send(self, data: bytes, *, key: int, attempt: int, delay: float) -> None:
        """Put one frame on the wire; chaos decides what arrives."""
        rng = np.random.default_rng(
            (self.seed, self.stream, int(key), int(attempt))
        )
        kind = self._draw_kind(rng)
        self.counters["sends"] += 1
        window = self.config.reorder_window
        # (extra delay beyond ``delay``, payload, clean-dedup key or None)
        copies: List[Tuple[float, bytes, Optional[int]]] = []
        if kind == "drop":
            self.counters["drops"] += 1
            self._m_drops.inc()
            self._charge(len(data))
        elif kind == "duplicate":
            self.counters["duplicates"] += 1
            self._m_duplicates.inc()
            jitter = float(rng.uniform(0.0, window))
            copies = [(0.0, data, key), (jitter, data, key)]
        elif kind == "reorder":
            self.counters["reorders"] += 1
            self._m_reorders.inc()
            copies = [(float(rng.uniform(0.0, window)), data, key)]
        elif kind == "corrupt":
            self.counters["corruptions"] += 1
            self._m_corruptions.inc()
            copies = [(0.0, self._corrupt(data, rng), None)]
        elif kind == "truncate":
            self.counters["truncations"] += 1
            self._m_truncations.inc()
            cut = int(rng.integers(0, len(data)))
            copies = [(0.0, data[:cut], None)]
        elif kind == "replay":
            self.counters["replays"] += 1
            self._m_replays.inc()
            lag = window + float(rng.uniform(0.0, 2.0 * window))
            copies = [(0.0, data, key), (lag, data, key)]
        else:
            copies = [(0.0, data, key)]
        for extra, payload, clean_key in copies:
            self._charge(len(payload))
            self._schedule(delay + extra, payload, clean_key)

    def _draw_kind(self, rng: np.random.Generator) -> Optional[str]:
        if self.config.total <= 0.0:
            return None
        u = float(rng.uniform())
        acc = 0.0
        for kind in _FAULT_KINDS:
            acc += getattr(self.config, kind)
            if u < acc:
                return kind
        return None

    def _corrupt(self, data: bytes, rng: np.random.Generator) -> bytes:
        bits = len(data) * 8
        if bits == 0:
            return data
        max_flips = 3 if bits <= _CRC32_HD4_BITS else 2
        flips = 1 + int(rng.integers(0, min(max_flips, bits)))
        positions = rng.choice(bits, size=min(flips, bits), replace=False)
        damaged = bytearray(data)
        for position in sorted(int(p) for p in positions):
            damaged[position // 8] ^= 1 << (position % 8)
        return bytes(damaged)

    def _charge(self, num_bytes: int) -> None:
        self.counters["copies"] += 1
        if self.charge is not None:
            self.charge(int(num_bytes))

    def _schedule(
        self, delay: float, payload: bytes, clean_key: Optional[int]
    ) -> None:
        at = float(self.loop.now) + float(delay)
        pid = self._next_pending
        self._next_pending += 1
        self._pending[pid] = (at, payload, clean_key)
        self.loop.schedule_at(at, lambda p=pid: self._fire(p))

    def _fire(self, pid: int) -> None:
        entry = self._pending.pop(pid, None)
        if entry is None:
            return
        _, payload, clean_key = entry
        if clean_key is not None:
            if clean_key in self._delivered:
                self.counters["dup_clean"] += 1
            else:
                self._delivered.add(clean_key)
        self.counters["deliveries"] += 1
        self.deliver(payload)

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "delivered": sorted(self._delivered),
            "next_pending": self._next_pending,
            "pending": [
                [
                    pid,
                    at,
                    base64.b64encode(payload).decode("ascii"),
                    clean_key,
                ]
                for pid, (at, payload, clean_key) in sorted(
                    self._pending.items()
                )
            ],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.counters = {k: int(v) for k, v in state["counters"].items()}
        self._delivered = {int(key) for key in state["delivered"]}
        self._next_pending = int(state["next_pending"])
        self._pending = {
            int(pid): (
                float(at),
                base64.b64decode(payload),
                None if clean_key is None else int(clean_key),
            )
            for pid, at, payload, clean_key in state["pending"]
        }

    def reschedule(self) -> None:
        """Re-arm every pending delivery after a restore (sorted, so the
        heap order matches the original run's for distinct times)."""
        for pid, (at, _, _) in sorted(
            self._pending.items(), key=lambda kv: (kv[1][0], kv[0])
        ):
            self.loop.schedule_at(at, lambda p=pid: self._fire(p))


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Error budget for one tenant's transport health.

    ``error_budget`` malformed frames inside a sliding ``window`` of
    virtual seconds trip the breaker OPEN; after ``cooldown`` seconds it
    probes HALF_OPEN, and ``probes`` consecutive clean frames close it.
    """

    error_budget: int = 32
    window: float = 30.0
    cooldown: float = 15.0
    probes: int = 4

    def __post_init__(self) -> None:
        require_finite(self)
        if self.error_budget < 1:
            raise ValueError("error_budget must be >= 1")
        if self.window <= 0 or self.cooldown <= 0:
            raise ValueError("window and cooldown must be positive")
        if self.probes < 1:
            raise ValueError("probes must be >= 1")


class TenantBreaker:
    """CLOSED → OPEN → HALF_OPEN → CLOSED, on virtual time."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._errors: Deque[float] = deque()
        self._opened_at = 0.0
        self._streak = 0

    def allow(self, now: float) -> bool:
        """May a delivery for this tenant proceed at virtual ``now``?"""
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.config.cooldown:
                self.state = BreakerState.HALF_OPEN
                self._streak = 0
                return True
            return False
        return True

    def record_ok(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._streak += 1
            if self._streak >= self.config.probes:
                self.state = BreakerState.CLOSED
                self._errors.clear()

    def record_error(self, now: float) -> bool:
        """Account one malformed frame; True when this error trips OPEN."""
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return True
        self._errors.append(float(now))
        floor = now - self.config.window
        while self._errors and self._errors[0] < floor:
            self._errors.popleft()
        if (
            self.state is BreakerState.CLOSED
            and len(self._errors) > self.config.error_budget
        ):
            self._trip(now)
            return True
        return False

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self._opened_at = float(now)
        self.trips += 1
        self._errors.clear()

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "trips": self.trips,
            "errors": list(self._errors),
            "opened_at": self._opened_at,
            "streak": self._streak,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.state = BreakerState(state["state"])
        self.trips = int(state["trips"])
        self._errors = deque(float(t) for t in state["errors"])
        self._opened_at = float(state["opened_at"])
        self._streak = int(state["streak"])
