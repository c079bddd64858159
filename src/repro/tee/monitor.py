"""The secure monitor (SMC) — the only gate between the two worlds.

Normal-world code calls :meth:`SecureMonitor.smc` naming a trusted
application and a command; the monitor switches the calling thread into the
secure world, dispatches to the TA, switches back, and accounts for the
world-switch cost.  The per-call counters feed the cost model's
world-switch term and give tests a way to assert that protected
computation really crossed the boundary.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict

from ..obs import get_clock, get_registry, get_tracer
from .trusted_app import TrustedApplication
from .world import TEEError, secure_world

__all__ = ["SecureMonitor", "SMCStats", "Session"]


@dataclass
class SMCStats:
    """Counters maintained by the monitor.

    All mutation is lock-guarded: client threads may share one monitor, and
    ``calls += 1`` / ``per_ta[name] += 1`` are read-modify-write races
    without it — the invariant tests assert *exact* call counts, so lost
    increments are test failures, not noise.
    """

    calls: int = 0
    per_ta: Dict[str, int] = field(default_factory=dict)
    sessions_opened: int = 0
    sessions_closed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, ta_name: str) -> None:
        with self._lock:
            self.calls += 1
            self.per_ta[ta_name] = self.per_ta.get(ta_name, 0) + 1

    def record_session(self, opened: bool) -> None:
        with self._lock:
            if opened:
                self.sessions_opened += 1
            else:
                self.sessions_closed += 1


@dataclass
class Session:
    """A GlobalPlatform-style client session with one TA."""

    session_id: int
    ta_uuid: str
    open: bool = True
    invocations: int = 0


class SecureMonitor:
    """Dispatches secure monitor calls (SMCs) to registered TAs.

    Besides raw ``smc`` dispatch, the monitor implements the
    GlobalPlatform-style session protocol OP-TEE clients use:
    :meth:`open_session` / :meth:`invoke` / :meth:`close_session`.
    """

    def __init__(self) -> None:
        self._tas: Dict[str, TrustedApplication] = {}
        self._sessions: Dict[int, Session] = {}
        self._next_session = 1
        self._session_lock = threading.Lock()
        self.stats = SMCStats()

    def install(self, ta: TrustedApplication) -> None:
        """Install a trusted application into the secure world."""
        if ta.uuid in self._tas:
            raise TEEError(f"TA with uuid {ta.uuid} already installed")
        self._tas[ta.uuid] = ta

    def uninstall(self, uuid: str) -> None:
        if uuid not in self._tas:
            raise KeyError(f"no TA with uuid {uuid}")
        del self._tas[uuid]

    def installed(self) -> tuple:
        """UUIDs of installed TAs."""
        return tuple(sorted(self._tas))

    def ta(self, uuid: str) -> TrustedApplication:
        try:
            return self._tas[uuid]
        except KeyError:
            raise KeyError(f"no TA with uuid {uuid}") from None

    def smc(self, uuid: str, command: str, **params: Any) -> Any:
        """World-switch into the secure world and invoke a TA command.

        Every call is observable: it increments ``tee.smc.calls`` (labelled
        by TA and command), records per-TA latency in ``tee.smc.seconds``,
        and opens a ``tee.smc`` span carrying the protected layer indices
        when the command names them — which is how the leakage-invariant
        tests prove protected computation actually crossed the boundary.
        """
        ta = self.ta(uuid)
        self.stats.record(ta.name)
        registry = get_registry()
        clock = get_clock()
        registry.counter(
            "tee.smc.calls", "world switches into the secure world"
        ).inc(ta=ta.name, command=command)
        attributes: Dict[str, Any] = {"ta": ta.name, "command": command}
        if "indices" in params:
            attributes["indices"] = [int(i) for i in params["indices"]]
        started = clock.now()
        try:
            with get_tracer().span("tee.smc", **attributes):
                with secure_world():
                    return ta.invoke(command, **params)
        finally:
            registry.histogram(
                "tee.smc.seconds", "secure-world residency per SMC"
            ).observe(clock.now() - started, ta=ta.name)

    # -- GlobalPlatform-style sessions ------------------------------------
    def open_session(self, uuid: str) -> int:
        """Open a client session with a TA; returns the session id."""
        self.ta(uuid)  # validates the UUID
        with self._session_lock:
            session = Session(self._next_session, uuid)
            self._sessions[session.session_id] = session
            self._next_session += 1
        self.stats.record_session(opened=True)
        get_registry().counter(
            "tee.sessions", "GlobalPlatform session lifecycle events"
        ).inc(event="opened")
        return session.session_id

    def invoke(self, session_id: int, command: str, **params: Any) -> Any:
        """Invoke a TA command within an open session."""
        session = self._sessions.get(session_id)
        if session is None or not session.open:
            raise TEEError(f"session {session_id} is not open")
        session.invocations += 1
        return self.smc(session.ta_uuid, command, **params)

    def close_session(self, session_id: int) -> None:
        """Close a session; further invokes through it fail."""
        session = self._sessions.get(session_id)
        if session is None or not session.open:
            raise TEEError(f"session {session_id} is not open")
        session.open = False
        self.stats.record_session(opened=False)
        get_registry().counter(
            "tee.sessions", "GlobalPlatform session lifecycle events"
        ).inc(event="closed")

    def session(self, session_id: int) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no session {session_id}") from None
