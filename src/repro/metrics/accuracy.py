"""Open-world evaluation accuracy (overall / seen / novel).

Following GCD and the paper's protocol, the Hungarian assignment between
predicted ids and ground-truth classes is run **once across all classes** on
the test nodes; the induced accuracy is then reported overall and separately
on nodes whose true class is seen vs. novel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assignment.alignment import remap_predictions


@dataclass
class OpenWorldAccuracy:
    """Accuracy triple reported throughout the paper's tables."""

    overall: float
    seen: float
    novel: float

    def as_dict(self) -> dict:
        return {"all": self.overall, "seen": self.seen, "novel": self.novel}

    def __str__(self) -> str:
        return (
            f"all={self.overall * 100:.1f}% seen={self.seen * 100:.1f}% "
            f"novel={self.novel * 100:.1f}%"
        )


def open_world_accuracy(
    predictions: np.ndarray,
    targets: np.ndarray,
    seen_classes: np.ndarray,
) -> OpenWorldAccuracy:
    """Compute overall/seen/novel clustering accuracy.

    Parameters
    ----------
    predictions:
        Predicted cluster/class ids on the test nodes.
    targets:
        Ground-truth class ids on the test nodes.
    seen_classes:
        The class ids that had labels during training.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    seen_classes = np.asarray(seen_classes, dtype=np.int64)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same shape")
    if predictions.size == 0:
        return OpenWorldAccuracy(float("nan"), float("nan"), float("nan"))

    correct = remap_predictions(predictions, targets) == targets

    seen_mask = np.isin(targets, seen_classes)
    novel_mask = ~seen_mask
    overall = float(correct.mean())
    seen = float(correct[seen_mask].mean()) if seen_mask.any() else float("nan")
    novel = float(correct[novel_mask].mean()) if novel_mask.any() else float("nan")
    return OpenWorldAccuracy(overall=overall, seen=seen, novel=novel)


def plain_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Exact-match accuracy without any id remapping (for supervised heads)."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same shape")
    if predictions.size == 0:
        return float("nan")
    return float((predictions == targets).mean())
