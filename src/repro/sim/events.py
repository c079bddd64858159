"""Deterministic discrete-event loop.

A tiny priority-queue scheduler over a
:class:`~repro.obs.clock.VirtualClock`: callbacks are ordered by their
simulated fire time, ties broken by insertion order, and popping an event
advances the clock to its timestamp before running it.  Because nothing here
reads the wall clock or iterates an unordered container, a seeded simulation
replays bit-for-bit — the property every ``repro simulate`` report and the
checkpoint/resume tests lean on.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..obs.clock import VirtualClock

__all__ = ["Event", "EventLoop"]


class Event:
    """A scheduled callback."""

    __slots__ = ("when", "seq", "callback")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback


class EventLoop:
    """Priority-queue event loop over simulated time.

    Parameters
    ----------
    clock:
        The :class:`VirtualClock` to drive (a fresh one when omitted).
        Sharing it with the obs context timestamps spans in simulated time.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock or VirtualClock()
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self.processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def now(self) -> float:
        return self.clock.time

    # -- scheduling --------------------------------------------------------
    def schedule_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` when simulated time reaches ``when``."""
        when = float(when)
        if when < self.clock.time:
            raise ValueError(
                f"cannot schedule at {when}: simulated time is already "
                f"{self.clock.time}"
            )
        event = Event(when, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, (event.when, event.seq, event))
        return event

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Pop the earliest event, advance the clock to it, run it.

        Returns False when no event remained.
        """
        if not self._heap:
            return False
        _, _, event = heapq.heappop(self._heap)
        self.clock.advance_to(event.when)
        self.processed += 1
        event.callback()
        return True

    def clear(self) -> int:
        """Discard every pending event; returns how many were dropped."""
        dropped = len(self)
        self._heap.clear()
        return dropped
