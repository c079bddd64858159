"""Observability layer: metrics registry + tracing with deterministic time.

One process-wide :class:`ObsContext` (registry, tracer, clock) is active at
any moment.  Instrumented code — the secure monitor, the memory pool, the
FL server/executor/client, the attack suite — fetches it lazily via
:func:`get_registry` / :func:`get_tracer` / :func:`get_clock` at call time,
so a test can swap in a fresh context (with a
:class:`~repro.obs.clock.FakeClock`) and observe *only* what ran inside:

    with obs.fresh(clock=FakeClock()) as ctx:
        shielded.begin_cycle(); shielded.train_step(x, y); shielded.end_cycle()
        assert ctx.registry.counter("tee.smc.calls").total() == expected

The default context uses the wall clock and survives for the life of the
process; ``repro trace`` and the invariant tests always run under
:func:`fresh` so their output is deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .clock import Clock, FakeClock, MonotonicClock, VirtualClock
from .export import (
    TraceValidationError,
    metrics_errors,
    trace_errors,
    validate_metrics,
    validate_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, label_key
from .tracing import Span, TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "VirtualClock",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "label_key",
    "Tracer",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceValidationError",
    "trace_errors",
    "validate_trace",
    "metrics_errors",
    "validate_metrics",
    "ObsContext",
    "get_context",
    "get_registry",
    "get_tracer",
    "get_clock",
    "configure",
    "fresh",
]


@dataclass
class ObsContext:
    """The triple every instrumented call site consults."""

    registry: MetricsRegistry
    tracer: Tracer
    clock: Clock


def _make_context(clock: Optional[Clock] = None) -> ObsContext:
    clock = clock or MonotonicClock()
    return ObsContext(MetricsRegistry(), Tracer(clock=clock), clock)


_swap_lock = threading.Lock()
_current = _make_context()


def get_context() -> ObsContext:
    return _current


def get_registry() -> MetricsRegistry:
    return _current.registry


def get_tracer() -> Tracer:
    return _current.tracer


def get_clock() -> Clock:
    return _current.clock


def configure(context: ObsContext) -> ObsContext:
    """Install ``context`` process-wide; returns the previous one."""
    global _current
    with _swap_lock:
        previous = _current
        _current = context
    return previous


@contextmanager
def fresh(clock: Optional[Clock] = None):
    """Run the block under a brand-new context (restored on exit).

    The workhorse of the deterministic test harness: pass a
    :class:`FakeClock` and everything instrumented inside the block lands
    in an isolated registry/tracer with reproducible timestamps.
    """
    context = _make_context(clock)
    previous = configure(context)
    try:
        yield context
    finally:
        configure(previous)
