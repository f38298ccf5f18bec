"""Optimal assignment (Hungarian algorithm) and cluster-class alignment."""

from .alignment import (
    ClusterAlignment,
    align_clusters_to_classes,
    clustering_accuracy,
    contingency_matrix,
    hungarian_accuracy_mapping,
    remap_predictions,
)
from .hungarian import hungarian, max_profit_assignment

__all__ = [
    "hungarian",
    "max_profit_assignment",
    "ClusterAlignment",
    "align_clusters_to_classes",
    "contingency_matrix",
    "hungarian_accuracy_mapping",
    "remap_predictions",
    "clustering_accuracy",
]
