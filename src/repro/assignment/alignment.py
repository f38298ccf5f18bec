"""Cluster-to-class alignment and open-world clustering accuracy.

Two alignments are used in the paper:

* **Training-time alignment** (Eq. 5): align clusters with seen classes using
  only the labeled nodes.  Clusters that do not match any seen class keep an
  "unaligned" novel id; pseudo labels of such clusters are usable only by the
  contrastive losses (class ids unordered).
* **Evaluation alignment**: the standard clustering-accuracy protocol — run
  the Hungarian algorithm once across all classes on the test nodes, then
  report accuracy overall and on seen/novel subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .hungarian import max_profit_assignment


def contingency_matrix(cluster_labels: np.ndarray, class_labels: np.ndarray,
                       num_clusters: Optional[int] = None,
                       num_classes: Optional[int] = None) -> np.ndarray:
    """Count matrix C[cluster, class] of co-occurrences."""
    cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
    class_labels = np.asarray(class_labels, dtype=np.int64)
    if cluster_labels.shape != class_labels.shape:
        raise ValueError("cluster and class label arrays must have identical shape")
    k = num_clusters if num_clusters is not None else int(cluster_labels.max()) + 1
    c = num_classes if num_classes is not None else int(class_labels.max()) + 1
    matrix = np.zeros((k, c), dtype=np.int64)
    np.add.at(matrix, (cluster_labels, class_labels), 1)
    return matrix


def _positions(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of every query in ``keys``; a ``KeyError`` names the first absent one.

    A repeated key resolves to its last index, as in a dict built from
    ``enumerate(keys)``.
    """
    order = np.argsort(keys, kind="stable")
    found = np.searchsorted(keys[order], queries, side="right") - 1
    hit = found >= 0
    hit[hit] = keys[order[found[hit]]] == queries[hit]
    if not hit.all():
        raise KeyError(int(queries[~hit].flat[0]))
    return order[found]


@dataclass
class ClusterAlignment:
    """Mapping from cluster ids to class ids.

    ``mapping[cluster]`` gives the class id assigned to that cluster.
    Clusters not matched to any seen class receive synthetic novel ids
    (>= ``num_known_classes``) so that every cluster maps to a distinct
    "class" for prediction purposes.
    """

    mapping: Dict[int, int]
    matched_clusters: np.ndarray
    unmatched_clusters: np.ndarray

    def apply(self, cluster_labels: np.ndarray) -> np.ndarray:
        """Translate cluster ids into class ids (``KeyError`` for an unmapped id)."""
        cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
        clusters = np.fromiter(self.mapping.keys(), dtype=np.int64, count=len(self.mapping))
        classes = np.fromiter(self.mapping.values(), dtype=np.int64, count=len(self.mapping))
        return classes[_positions(clusters, cluster_labels)]


def align_clusters_to_classes(
    cluster_labels: np.ndarray,
    class_labels: np.ndarray,
    num_clusters: int,
    known_classes: np.ndarray,
    total_num_classes: Optional[int] = None,
) -> ClusterAlignment:
    """Hungarian alignment of clusters to *seen* classes on labeled nodes (Eq. 5).

    Parameters
    ----------
    cluster_labels:
        Predicted cluster of every labeled node.
    class_labels:
        Ground-truth (seen) class of every labeled node.
    num_clusters:
        Total number of clusters (>= number of seen classes).
    known_classes:
        The seen class ids that can be matched.
    total_num_classes:
        Used to pick fresh ids for unmatched clusters; defaults to
        ``max(known_classes) + 1``.
    """
    known_classes = np.asarray(known_classes, dtype=np.int64)
    compact_classes = _positions(known_classes, np.asarray(class_labels, dtype=np.int64))
    counts = contingency_matrix(
        cluster_labels, compact_classes, num_clusters=num_clusters,
        num_classes=known_classes.shape[0],
    )
    rows, cols = max_profit_assignment(counts.astype(np.float64))
    mapping: Dict[int, int] = {}
    matched = []
    for cluster, class_pos in zip(rows, cols, strict=True):
        mapping[int(cluster)] = int(known_classes[class_pos])
        matched.append(int(cluster))
    matched = np.asarray(sorted(matched), dtype=np.int64)
    unmatched = np.setdiff1d(np.arange(num_clusters), matched)
    next_id = int(total_num_classes if total_num_classes is not None else known_classes.max() + 1)
    for cluster in unmatched:
        mapping[int(cluster)] = next_id
        next_id += 1
    return ClusterAlignment(mapping=mapping, matched_clusters=matched, unmatched_clusters=unmatched)


def _match_ids(predictions: np.ndarray, targets: np.ndarray) -> tuple:
    """Hungarian matching of predicted ids to target ids by co-occurrence.

    Returns ``(pred_ids, pred_index, target_ids, rows, cols)``: the sorted
    distinct ids, each prediction's position in ``pred_ids``, and the
    matched ``(pred_ids[rows], target_ids[cols])`` pairs.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have the same shape")
    pred_ids, pred_index = np.unique(predictions, return_inverse=True)
    target_ids, target_index = np.unique(targets, return_inverse=True)
    num_targets = target_ids.shape[0]
    counts = np.bincount(pred_index * num_targets + target_index,
                         minlength=pred_ids.shape[0] * num_targets)
    rows, cols = max_profit_assignment(
        counts.reshape(pred_ids.shape[0], num_targets).astype(np.float64))
    return pred_ids, pred_index, target_ids, rows, cols


def hungarian_accuracy_mapping(predictions: np.ndarray, targets: np.ndarray) -> Dict[int, int]:
    """Best prediction-id -> target-id mapping for clustering accuracy."""
    pred_ids, _, target_ids, rows, cols = _match_ids(predictions, targets)
    return {int(pred_ids[r]): int(target_ids[c]) for r, c in zip(rows, cols, strict=True)}


def remap_predictions(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``predictions`` translated by :func:`hungarian_accuracy_mapping`.

    Predicted ids the matching leaves unmatched (more predicted ids than
    target ids) become ``-1``.
    """
    pred_ids, pred_index, target_ids, rows, cols = _match_ids(predictions, targets)
    lookup = np.full(pred_ids.shape[0], -1, dtype=np.int64)
    lookup[rows] = target_ids[cols]
    return lookup[pred_index]


def clustering_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Standard clustering accuracy: best Hungarian matching, then accuracy."""
    return float((remap_predictions(predictions, targets) == targets).mean())
