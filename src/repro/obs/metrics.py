"""Process-wide metrics: thread-safe counters, gauges, and histograms.

The design follows the Prometheus client model stripped to what this repo
needs, with no dependencies beyond the stdlib:

* a :class:`MetricsRegistry` maps metric names to instruments and renders
  the whole set as `Prometheus text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (served
  by ``GET /metrics`` in :mod:`repro.serve`);
* instruments are **get-or-create**: every call site asks the registry for
  ``counter(name, ...)`` and receives the same object, so instrumentation
  can live in many modules without wiring a registry through every
  constructor;
* each instrument owns one lock covering its label children, so concurrent
  updates from request/worker threads never lose increments (asserted by a
  hammer test) and a render sees a consistent per-metric snapshot.  The
  locks are leaves — no instrument method calls out while holding one — so
  they can never participate in a lock-order inversion.

Histograms use **fixed log-scale buckets** (factor-of-two from 50 µs to
~6.5 s by default): latency distributions span orders of magnitude, and a
geometric grid keeps relative quantile error bounded at every scale with a
handful of buckets.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (upper bounds, seconds): factor-of-two
#: log-scale from 50 µs to ~6.5 s.  18 buckets bound the relative error of
#: an estimated quantile by 2x at any latency scale the repo serves.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    5e-05 * (2.0 ** i) for i in range(18)
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    """Render a sample value (integral floats without the trailing ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    """``{a="x",b="y"}`` (empty string for an unlabeled sample)."""
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues, strict=True)
    )
    return "{" + pairs + "}"


class Metric:
    """Base instrument: a named family of label children behind one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        self.name = name
        self.help = str(help)
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}  # guarded-by: _lock

    # -- label plumbing -------------------------------------------------
    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _fresh_child(self) -> object:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every label child (used by ``MetricsRegistry.reset``)."""
        with self._lock:
            self._children.clear()

    # -- introspection --------------------------------------------------
    def samples(self) -> List[tuple]:
        """``(suffix, labelnames, labelvalues, value)`` rows for rendering."""
        raise NotImplementedError

    def summary(self) -> dict:
        """JSON-able snapshot (used by ``/stats``)."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (rendered with type ``counter``)."""

    kind = "counter"

    def _fresh_child(self) -> List[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._fresh_child()
            child[0] += amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child[0] if child is not None else 0.0

    def total(self) -> float:
        """Sum over every label child."""
        with self._lock:
            return sum(child[0] for child in self._children.values())

    def samples(self) -> List[tuple]:
        with self._lock:
            items = [(key, child[0]) for key, child in self._children.items()]
        return [("", self.labelnames, key, value)
                for key, value in sorted(items)]

    def summary(self) -> dict:
        with self._lock:
            items = [(key, child[0]) for key, child in self._children.items()]
        return {
            "kind": self.kind,
            "values": {format_labels(self.labelnames, key) or "": value
                       for key, value in sorted(items)},
        }


class Gauge(Metric):
    """A value that can go up and down (queue depth, in-flight requests)."""

    kind = "gauge"

    def _fresh_child(self) -> List[float]:
        return [0.0]

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._fresh_child()
            child[0] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._fresh_child()
            child[0] += amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child[0] if child is not None else 0.0

    samples = Counter.samples
    summary = Counter.summary


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class _HistogramTimer:
    """``with histogram.time(...):`` — observe the block's duration."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: "Histogram", labels: Dict[str, object]):
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        from .clock import monotonic

        self._start = monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        from .clock import monotonic

        self._histogram.observe(monotonic() - self._start, **self._labels)
        return False


class Histogram(Metric):
    """Cumulative-bucket histogram over fixed (log-scale) upper bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing")
        self.buckets = bounds

    def _fresh_child(self) -> _HistogramChild:
        return _HistogramChild(len(self.buckets))

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._fresh_child()
            child.counts[index] += 1
            child.sum += value
            child.count += 1

    def time(self, **labels) -> _HistogramTimer:
        """Context manager observing the wrapped block's duration in seconds."""
        return _HistogramTimer(self, labels)

    def _snapshot(self) -> List[Tuple[Tuple[str, ...], List[int], float, int]]:
        with self._lock:
            return [(key, list(child.counts), child.sum, child.count)
                    for key, child in sorted(self._children.items())]

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.count if child is not None else 0

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Bucket-interpolated quantile estimate (None with no samples)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None or child.count == 0:
                return None
            counts = list(child.counts)
            total = child.count
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.buckets[-1]  # +Inf bucket: clamp to the edge
                return self.buckets[index]
        return self.buckets[-1]

    def samples(self) -> List[tuple]:
        rows: List[tuple] = []
        bucket_labelnames = (*self.labelnames, "le")
        for key, counts, total_sum, total_count in self._snapshot():
            cumulative = 0
            for bound, bucket_count in zip(
                    self.buckets, counts[:-1], strict=True):
                cumulative += bucket_count
                rows.append(("_bucket", bucket_labelnames,
                             (*key, _format_value(bound)), cumulative))
            rows.append(("_bucket", bucket_labelnames,
                         (*key, "+Inf"), total_count))
            rows.append(("_sum", self.labelnames, key, total_sum))
            rows.append(("_count", self.labelnames, key, total_count))
        return rows

    def summary(self) -> dict:
        values = {}
        for key, _counts, total_sum, total_count in self._snapshot():
            label_repr = format_labels(self.labelnames, key) or ""
            mean = (total_sum / total_count) if total_count else None
            values[label_repr] = {
                "count": total_count,
                "sum": total_sum,
                "mean": mean,
                "p50": self.quantile(0.5, **dict(
                    zip(self.labelnames, key, strict=True))),
                "p99": self.quantile(0.99, **dict(
                    zip(self.labelnames, key, strict=True))),
            }
        return {"kind": self.kind, "values": values}


class MetricsRegistry:
    """Name -> instrument map with get-or-create semantics and rendering.

    The process-wide instance lives at :data:`repro.obs.REGISTRY`; isolated
    registries are only needed by tests.  ``reset()`` zeroes every
    instrument **in place** (references held by instrumented modules stay
    valid), which is what test isolation needs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}  # guarded-by: _lock

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}")
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{list(existing.labelnames)}, requested "
                        f"{list(labelnames)}")
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """Registered instruments sorted by name (snapshot of the map)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every instrument in place (registrations are kept)."""
        for metric in self.collect():
            metric.clear()

    def render_prometheus(self, prefix: Optional[str] = None) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4).

        ``prefix`` restricts the output to metric names starting with it.
        Metrics with no recorded samples still emit their HELP/TYPE header,
        so scrapers discover the full schema from the first response.
        """
        lines: List[str] = []
        for metric in self.collect():
            if prefix is not None and not metric.name.startswith(prefix):
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for suffix, labelnames, labelvalues, value in metric.samples():
                labels = format_labels(labelnames, labelvalues)
                lines.append(
                    f"{metric.name}{suffix}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def summary(self, prefix: Optional[str] = None) -> dict:
        """JSON-able ``{name: {kind, values}}`` snapshot for ``/stats``."""
        report = {}
        for metric in self.collect():
            if prefix is not None and not metric.name.startswith(prefix):
                continue
            report[metric.name] = metric.summary()
        return report
