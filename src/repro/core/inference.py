"""Two-stage inference: K-Means over embeddings + cluster-class alignment.

This is the prediction procedure shared by OpenIMA and the two-stage
baselines (Section IV-B): embed all nodes, cluster into ``|C_l| + |C_n|``
clusters, align clusters with seen classes via the Hungarian algorithm on the
labeled nodes (Eq. 5), and read off class predictions for the unlabeled
nodes.  Unaligned clusters become novel-class predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..assignment.alignment import ClusterAlignment, align_clusters_to_classes
from ..clustering.engine import ClusteringEngine
from ..clustering.kmeans import KMeansResult
from ..datasets.splits import OpenWorldDataset
from .labels import LabelSpace


@dataclass
class InferenceResult:
    """Predictions plus the two-stage clustering they were read against.

    ``predictions`` contains a class id per node (all nodes of the graph):
    original seen class ids, and synthetic novel ids (>= max class id + 1)
    for the rest.  :func:`two_stage_predict` reads them off the aligned
    clusters; a method with its own rule (the head, OOD rejection) replaces
    them and keeps ``cluster_result`` and ``alignment``.
    """

    predictions: np.ndarray
    cluster_result: KMeansResult
    alignment: ClusterAlignment
    label_space: LabelSpace


def two_stage_predict(
    embeddings: np.ndarray,
    dataset: OpenWorldDataset,
    num_novel_classes: Optional[int] = None,
    seed: int = 0,
    mini_batch: bool = False,
    engine: Optional[ClusteringEngine] = None,
) -> InferenceResult:
    """Run the full two-stage inference on precomputed embeddings.

    Parameters
    ----------
    embeddings:
        Node representations of every node in ``dataset.graph``.
    dataset:
        Provides the labeled nodes for alignment and the seen classes.
    num_novel_classes:
        Number of novel classes assumed at inference; defaults to the ground
        truth ``|C_n|`` (the main-table protocol).  Table VI passes an
        estimate instead.
    seed, mini_batch:
        Passed to the clustering step,
        :meth:`~repro.clustering.engine.ClusteringEngine.cluster`.
    engine:
        The :class:`~repro.clustering.engine.ClusteringEngine` whose
        stateless ``cluster`` path runs the clustering step under its
        configured strategy; ``None`` uses a default (``exact``) engine.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.shape[0] != dataset.graph.num_nodes:
        raise ValueError("embeddings must cover every node of the graph")

    split = dataset.split
    num_novel = split.num_novel if num_novel_classes is None else int(num_novel_classes)
    if num_novel < 1:
        raise ValueError("need at least one novel class")
    label_space = LabelSpace(seen_classes=split.seen_classes, num_novel=num_novel)
    num_clusters = label_space.num_total

    engine = engine if engine is not None else ClusteringEngine()
    cluster_result = engine.cluster(embeddings, num_clusters, seed=seed,
                                    mini_batch=mini_batch)

    train_internal = label_space.to_internal(dataset.labels[split.train_nodes])
    alignment = align_clusters_to_classes(
        cluster_result.labels[split.train_nodes],
        train_internal,
        num_clusters=num_clusters,
        known_classes=np.arange(label_space.num_seen),
        total_num_classes=label_space.num_seen,
    )
    internal_predictions = alignment.apply(cluster_result.labels)
    predictions = label_space.to_original(internal_predictions)
    return InferenceResult(
        predictions=predictions,
        cluster_result=cluster_result,
        alignment=alignment,
        label_space=label_space,
    )


def head_predict(
    embeddings: np.ndarray,
    head_weight: np.ndarray,
    label_space: LabelSpace,
) -> np.ndarray:
    """Predict with the classification head (large-graph refinement, Table IV).

    The head outputs internal indices which are converted back to original
    class ids / synthetic novel ids via ``label_space``.
    """
    logits = np.asarray(embeddings) @ np.asarray(head_weight)
    internal = logits.argmax(axis=1)
    return label_space.to_original(internal)
