"""Bounded, levelled in-process event log.

The serving layer used to discard the stdlib HTTP request log entirely
(``_Handler.log_message`` was a ``pass``), which made 4xx/5xx responses
undiagnosable on a live server.  :class:`EventLog` is the sink those lines
(and any other subsystem breadcrumbs) now flow into: a thread-safe ring
buffer of ``{ts, level, source, message, ...}`` records with per-level
counters, cheap enough to leave on permanently and bounded so a chatty
debug source can never grow memory.

Read it back via ``GET /stats`` (``ModelServer.stats()["obs"]``) or
directly::

    from repro import obs
    obs.EVENTS.snapshot(level="debug", limit=50)
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from .clock import get_clock

LEVELS = ("debug", "info", "warning", "error")

#: Events kept in the ring buffer.
DEFAULT_CAPACITY = 4096


class EventLog:
    """Thread-safe bounded log of structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._events: Deque[dict] = deque(maxlen=int(capacity))  # guarded-by: _lock
        self._counts: Dict[str, int] = dict.fromkeys(LEVELS, 0)  # guarded-by: _lock
        self._lock = threading.Lock()

    def log(self, level: str, message: str, source: str = "",
            **fields) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
        record = {"ts": get_clock().wall(), "level": level,
                  "source": source, "message": str(message)}
        record.update(fields)
        with self._lock:
            self._events.append(record)
            self._counts[level] += 1

    def debug(self, message: str, source: str = "", **fields) -> None:
        self.log("debug", message, source, **fields)

    def info(self, message: str, source: str = "", **fields) -> None:
        self.log("info", message, source, **fields)

    def warning(self, message: str, source: str = "", **fields) -> None:
        self.log("warning", message, source, **fields)

    def error(self, message: str, source: str = "", **fields) -> None:
        self.log("error", message, source, **fields)

    def snapshot(self, level: Optional[str] = None,
                 limit: Optional[int] = None) -> List[dict]:
        """Most recent events, oldest first (copies; safe to mutate)."""
        with self._lock:
            events = [dict(event) for event in self._events]
        if level is not None:
            events = [event for event in events if event["level"] == level]
        if limit is not None:
            events = events[-int(limit):]
        return events

    def counts(self) -> Dict[str, int]:
        """Total events logged per level (not bounded by the ring buffer)."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._events.clear()
            self._counts = dict.fromkeys(LEVELS, 0)
