"""Bias-reduced pseudo-label generation (Section IV-C).

Instead of training a classifier for pseudo-labeling (which would be biased
toward the seen classes, since only they have labels), OpenIMA clusters the
current node embeddings with unsupervised K-Means, ranks cluster assignments
by confidence (inverse distance to the assigned centroid), keeps the top-rho%
most confident assignments, and aligns clusters with seen classes using the
Hungarian algorithm on the labeled nodes.  Pseudo labels are only attached to
*unlabeled* nodes; clusters that match no seen class keep unordered novel ids
that only the contrastive losses consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..assignment.alignment import ClusterAlignment, align_clusters_to_classes
from ..clustering.engine import ClusteringEngine, ClusteringOutcome
from ..clustering.kmeans import KMeansResult


@dataclass
class PseudoLabels:
    """Bias-reduced pseudo labels for one refresh step.

    Attributes
    ----------
    node_indices:
        Indices of unlabeled nodes that received a pseudo label.
    labels:
        Internal class indices (seen classes 0..S-1; novel ids >= S) for those
        nodes.
    cluster_result:
        The underlying K-Means result (all nodes).
    alignment:
        The cluster-to-class alignment computed on the labeled nodes.
    confidence:
        Confidence value of every node (not just selected ones); higher means
        closer to its cluster centroid.
    clustering:
        The engine outcome behind ``cluster_result`` (strategy, whether the
        refresh re-fitted or only reassigned, parameter-version drift);
        ``None`` when the caller passed a precomputed ``cluster_result``.
    """

    node_indices: np.ndarray
    labels: np.ndarray
    cluster_result: KMeansResult
    alignment: ClusterAlignment
    confidence: np.ndarray
    clustering: Optional[ClusteringOutcome] = None

    @property
    def num_selected(self) -> int:
        return int(self.node_indices.shape[0])

    def label_lookup(self, num_nodes: int) -> np.ndarray:
        """Dense array of length ``num_nodes`` with -1 where no pseudo label."""
        dense = -np.ones(num_nodes, dtype=np.int64)
        dense[self.node_indices] = self.labels
        return dense


def generate_pseudo_labels(
    embeddings: np.ndarray,
    labeled_indices: np.ndarray,
    labeled_internal_labels: np.ndarray,
    num_seen_classes: int,
    num_clusters: int,
    rho: float = 75.0,
    cluster_result: Optional[KMeansResult] = None,
    engine: Optional[ClusteringEngine] = None,
) -> PseudoLabels:
    """Produce bias-reduced pseudo labels from the current embeddings.

    Parameters
    ----------
    embeddings:
        Current node representations, shape (num_nodes, d).
    labeled_indices:
        Indices of the labeled (training) nodes.
    labeled_internal_labels:
        Internal seen-class indices (0..num_seen_classes-1) of those nodes.
    num_seen_classes:
        Number of seen classes S.
    num_clusters:
        Number of clusters K = S + number of novel classes.
    rho:
        Selection rate in percent: the top-rho% most confident cluster
        assignments (over all nodes) define the reliable set; pseudo labels
        are attached to unlabeled nodes inside it.
    cluster_result:
        Optionally reuse a precomputed clustering of ``embeddings``.
    engine:
        The :class:`~repro.clustering.engine.ClusteringEngine` that clusters
        when no ``cluster_result`` is given, through its stateful
        ``refresh`` path (configured strategy, the ``online`` strategy's
        carried centroids).  The outcome is recorded on the returned
        :class:`PseudoLabels`.  ``None`` uses a fresh default (``exact``,
        seed 0) engine.
    """
    if not 0 < rho <= 100:
        raise ValueError("rho must be in (0, 100]")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labeled_indices = np.asarray(labeled_indices, dtype=np.int64)
    labeled_internal_labels = np.asarray(labeled_internal_labels, dtype=np.int64)
    num_nodes = embeddings.shape[0]

    outcome: Optional[ClusteringOutcome] = None
    if cluster_result is None:
        engine = engine if engine is not None else ClusteringEngine()
        outcome = engine.refresh(embeddings, num_clusters)
        cluster_result = outcome.result

    # Confidence: inversely proportional to the distance to the assigned centroid.
    distances = cluster_result.distances_to_center(embeddings)
    confidence = -distances

    # Keep the top-rho% most confident assignments over all nodes.
    num_reliable = max(1, int(np.ceil(num_nodes * rho / 100.0)))
    reliable = np.argsort(-confidence)[:num_reliable]
    reliable_mask = np.zeros(num_nodes, dtype=bool)
    reliable_mask[reliable] = True

    # Align clusters with seen classes using only the labeled nodes.
    alignment = align_clusters_to_classes(
        cluster_result.labels[labeled_indices],
        labeled_internal_labels,
        num_clusters=num_clusters,
        known_classes=np.arange(num_seen_classes),
        total_num_classes=num_seen_classes,
    )
    aligned_labels = alignment.apply(cluster_result.labels)

    # Pseudo labels only supplement unlabeled nodes inside the reliable set.
    labeled_mask = np.zeros(num_nodes, dtype=bool)
    labeled_mask[labeled_indices] = True
    selected = np.where(reliable_mask & ~labeled_mask)[0]

    return PseudoLabels(
        node_indices=selected,
        labels=aligned_labels[selected],
        cluster_result=cluster_result,
        alignment=alignment,
        confidence=confidence,
        clustering=outcome,
    )
