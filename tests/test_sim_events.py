"""VirtualClock and the discrete-event loop."""

from __future__ import annotations

import pytest

from repro.obs import VirtualClock
from repro.sim import EventLoop


def drain(loop):
    while loop.step():
        pass


class TestVirtualClock:
    def test_starts_where_told(self):
        assert VirtualClock().time == 0.0
        assert VirtualClock(start=5.5).time == 5.5

    def test_reads_have_no_side_effects_by_default(self):
        clock = VirtualClock()
        for _ in range(10):
            clock.now()
        assert clock.time == 0.0

    def test_read_tick_spaces_timestamps(self):
        clock = VirtualClock(read_tick=0.25)
        assert clock.now() == 0.0
        assert clock.now() == 0.25
        assert clock.time == 0.5

    def test_advance_and_advance_to(self):
        clock = VirtualClock()
        clock.advance(2.0)
        assert clock.time == 2.0
        clock.advance_to(7.0)
        assert clock.time == 7.0
        clock.advance_to(7.0)  # no-op, not an error
        assert clock.time == 7.0

    def test_time_never_rewinds(self):
        clock = VirtualClock(start=3.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_to(2.0)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, lambda: fired.append("c"))
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(2.0, lambda: fired.append("b"))
        drain(loop)
        assert fired == ["a", "b", "c"]
        assert loop.clock.time == 3.0

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        fired = []
        for tag in range(5):
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        drain(loop)
        assert fired == [0, 1, 2, 3, 4]

    def test_step_advances_clock_to_event(self):
        loop = EventLoop()
        loop.schedule_at(4.5, lambda: None)
        assert loop.step() is True
        assert loop.clock.time == 4.5
        assert loop.step() is False

    def test_cannot_schedule_in_the_past(self):
        loop = EventLoop()
        loop.clock.advance_to(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(4.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.schedule_at(loop.now + 1.0, lambda: chain(n + 1))

        loop.schedule_at(1.0, lambda: chain(0))
        drain(loop)
        assert fired == [0, 1, 2, 3]
        assert loop.clock.time == 4.0

    def test_clear_discards_pending(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        assert loop.clear() == 2
        assert loop.step() is False

    def test_shared_clock(self):
        clock = VirtualClock()
        loop = EventLoop(clock)
        loop.schedule_at(3.0, lambda: None)
        drain(loop)
        assert clock.time == 3.0
