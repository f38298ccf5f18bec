"""Span-based tracing with JSONL export and a flame-style text summary.

A *span* is one timed region of code::

    from repro import obs

    with obs.span("inference.layer", layer=i):
        ...

Spans nest (each thread keeps its own stack, so concurrent request threads
never interleave their paths) and each completed span records its full path
(``"serve.request;inference.compute;inference.layer"``), wall-clock start,
duration, self-time (duration minus the time spent in child spans), depth,
thread name, and free-form attributes.

Two export shapes:

* :meth:`Tracer.export_jsonl` — one JSON object per completed span, for
  offline analysis;
* :meth:`Tracer.flame_report` — an aggregated, flame-graph-style text table
  (per unique path: calls, total, self, and a proportional bar), for a
  terminal-sized profile.

The tracer is allocation-light but not free: the module-level
:func:`repro.obs.span` fast path returns a shared no-op context manager
while tracing is disabled, so instrumented hot loops pay one attribute read
and one branch (benchmarked in ``benchmarks/test_perf_obs_overhead.py``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from .clock import get_clock

#: Completed spans kept in memory (ring buffer; older spans are dropped).
DEFAULT_MAX_SPANS = 65536


class _ActiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_wall",
                 "_path", "_child_seconds")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = str(name)
        self.attrs = attrs
        self._start = 0.0
        self._wall = 0.0
        self._path = ""
        self._child_seconds = 0.0

    def __enter__(self) -> "_ActiveSpan":
        clock = get_clock()
        stack = self._tracer._stack()
        self._path = (stack[-1]._path + ";" + self.name) if stack else self.name
        stack.append(self)
        self._wall = clock.wall()
        self._start = clock.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = get_clock().monotonic() - self._start
        stack = self._tracer._stack()
        # The span being exited is the top of this thread's stack by
        # construction (with-statements unwind LIFO even on exceptions).
        stack.pop()
        if stack:
            stack[-1]._child_seconds += duration
        self._tracer._record({
            "name": self.name,
            "path": self._path,
            "start": self._wall,
            "duration": duration,
            "self": max(0.0, duration - self._child_seconds),
            "depth": self._path.count(";"),
            "thread": threading.current_thread().name,
            "error": exc_type.__name__ if exc_type is not None else None,
            **({"attrs": self.attrs} if self.attrs else {}),
        })
        return False


class Tracer:
    """Collects completed spans per thread into one bounded ring buffer."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self._spans: Deque[dict] = deque(maxlen=int(max_spans))  # guarded-by: _lock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._started = 0  # guarded-by: _lock

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("stage.name", key=...):``."""
        return _ActiveSpan(self, name, attrs)

    def _record(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)
            self._started += 1

    # -- introspection --------------------------------------------------
    def records(self) -> List[dict]:
        """Completed spans, oldest first (copies; safe to mutate)."""
        with self._lock:
            return [dict(record) for record in self._spans]

    def stats(self) -> dict:
        with self._lock:
            recorded = len(self._spans)
            started = self._started
        return {"spans_recorded": recorded,
                "spans_total": started,
                "spans_dropped": started - recorded}

    def reset(self) -> None:
        """Drop recorded spans and counters (active stacks are untouched)."""
        with self._lock:
            self._spans.clear()
            self._started = 0

    # -- export ---------------------------------------------------------
    def export_jsonl(self) -> str:
        """One JSON object per completed span, newline-separated."""
        return "\n".join(json.dumps(record, sort_keys=True)
                         for record in self.records())

    def flame_report(self, top: Optional[int] = None, width: int = 28) -> str:
        """Aggregate spans by path into a flame-style text profile.

        Paths are sorted depth-first so children print under their parent,
        indented by depth, with a bar proportional to the path's share of
        total root time.  ``top`` keeps only the ``top`` hottest root trees.
        """
        records = self.records()
        if not records:
            return "(no spans recorded)"
        totals: Dict[str, dict] = {}
        for record in records:
            row = totals.setdefault(
                record["path"],
                {"calls": 0, "total": 0.0, "self": 0.0, "errors": 0})
            row["calls"] += 1
            row["total"] += record["duration"]
            row["self"] += record["self"]
            row["errors"] += 1 if record.get("error") else 0
        root_total = sum(row["total"] for path, row in totals.items()
                         if ";" not in path) or 1e-12
        if top is not None:
            roots = sorted(
                (path for path in totals if ";" not in path),
                key=lambda path: -totals[path]["total"])[:max(1, int(top))]
            keep = set(roots)
            totals = {path: row for path, row in totals.items()
                      if path.split(";", 1)[0] in keep}
        name_width = max(
            len("  " * path.count(";") + path.rsplit(";", 1)[-1])
            for path in totals)
        lines = [
            f"{'span':<{name_width}}  {'calls':>7}  {'total':>10}  "
            f"{'self':>10}  {'share':>6}"
        ]
        for path in sorted(totals):
            row = totals[path]
            depth = path.count(";")
            label = "  " * depth + path.rsplit(";", 1)[-1]
            share = row["total"] / root_total
            bar = "#" * max(1, round(share * width)) if row["total"] else ""
            error_mark = f"  !{row['errors']}" if row["errors"] else ""
            lines.append(
                f"{label:<{name_width}}  {row['calls']:>7}  "
                f"{row['total'] * 1e3:>8.2f}ms  {row['self'] * 1e3:>8.2f}ms  "
                f"{share:>6.1%}  {bar}{error_mark}"
            )
        return "\n".join(lines)
