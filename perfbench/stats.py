"""Summaries shared by every perfbench timing.

A timing is reported as its median, its highest percentile that still has at
least :data:`BEYOND` samples above it, and its sample count.  The tail level
therefore follows the sample count (p90 at 100 samples, p99 at 1000) instead
of quoting a p99 that rests on one or two samples; with too few samples for
a tail above the median, none is reported.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Samples that must lie above a reported tail percentile.
BEYOND = 10


def tail(samples: Sequence[float], beyond: int = BEYOND) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile with ``beyond`` samples above it.

    ``None`` unless that percentile lies above the median (more than
    ``2 * beyond`` samples): below it, it is no tail.
    """
    n = len(samples)
    if n <= 2 * beyond:
        return None
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def summarize(samples: Sequence[float]) -> dict:
    """Median, rule-conforming tail and count of ``samples``."""
    high = tail(samples)
    return {
        "n": len(samples),
        "median": statistics.median(samples) if samples else None,
        "mean": statistics.fmean(samples) if samples else None,
        "tail": high[0] if high else None,
        "tail_pct": round(high[1], 2) if high else None,
    }
