"""``repro.obs`` — metrics, tracing, and profiling across every engine.

Three process-wide singletons, all stdlib-only and thread-safe:

* :data:`REGISTRY` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters/gauges/histograms.  Instrumented subsystems (trainer, inference,
  clustering, serve, streaming) update it unconditionally — a metric update
  is a dict lookup and a locked float add, far below the noise floor of any
  instrumented operation — and ``GET /metrics`` renders it in Prometheus
  text exposition format.
* :data:`TRACER` — a span-based :class:`~repro.obs.tracing.Tracer`.  Spans
  are **off by default** and gated by the module-level fast path below:
  :func:`span` returns a shared no-op context manager unless tracing was
  enabled via :func:`configure` or ``REPRO_OBS=1``, so per-batch/per-layer
  instrumentation costs one attribute read and one branch when disabled
  (<1% of the serving hot path; measured in
  ``benchmarks/test_perf_obs_overhead.py``).
* :data:`EVENTS` — a bounded :class:`~repro.obs.events.EventLog` (the HTTP
  request log and other breadcrumbs).

All time flows through the injectable :mod:`repro.obs.clock` — the only
module allowed to read the wall clock outside lint rule R6's allowlist —
so deterministic paths stay wall-clock-free and tests can drive a
:class:`~repro.obs.clock.ManualClock`.

Quickstart::

    from repro import obs

    obs.configure(enabled=True)            # arm span collection
    with obs.span("my.stage", shard=3):
        ...
    print(obs.TRACER.flame_report())       # flame-style text profile
    print(obs.REGISTRY.render_prometheus())  # scrape-ready metrics
"""

from __future__ import annotations

import os
from typing import Optional

from .clock import Clock, ManualClock, SystemClock, get_clock, set_clock
from .events import EventLog
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Clock",
    "Counter",
    "EVENTS",
    "EventLog",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "REGISTRY",
    "SystemClock",
    "TRACER",
    "Tracer",
    "configure",
    "enabled",
    "get_clock",
    "reset",
    "set_clock",
    "span",
    "summary",
]

#: Process-wide metric registry (get-or-create instruments by name).
REGISTRY = MetricsRegistry()

#: Process-wide tracer (span collection gated by :func:`configure`).
TRACER = Tracer()

#: Process-wide event log (always on; bounded ring buffer).
EVENTS = EventLog()

_enabled: bool = os.environ.get("REPRO_OBS", "").lower() not in ("", "0", "false")


class _NullSpan:
    """Shared no-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def enabled() -> bool:
    """Whether span collection is armed (metrics/events are always on)."""
    return _enabled


def configure(enabled: Optional[bool] = None,
              clock: Optional[Clock] = None) -> None:
    """Toggle span collection and/or install a process-wide clock."""
    global _enabled
    if enabled is not None:
        _enabled = bool(enabled)
    if clock is not None:
        set_clock(clock)


def span(name: str, **attrs):
    """Open a trace span, or a shared no-op when tracing is disabled.

    This is *the* instrumentation entry point for hot paths: the disabled
    branch performs no allocation beyond the caller's ``attrs`` dict.
    """
    if not _enabled:
        return _NULL_SPAN
    return TRACER.span(name, **attrs)


def summary() -> dict:
    """One JSON-able snapshot of all three singletons (``/stats["obs"]``)."""
    return {
        "enabled": _enabled,
        "metrics": REGISTRY.summary(),
        "tracing": TRACER.stats(),
        "events": EVENTS.counts(),
    }


def reset() -> None:
    """Zero metrics, drop spans and events (test isolation helper)."""
    REGISTRY.reset()
    TRACER.reset()
    EVENTS.reset()
