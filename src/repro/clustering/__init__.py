"""Clustering algorithms, the pluggable refresh engine, and quality metrics."""

from .engine import ClusteringEngine, ClusteringOutcome
from .kmeans import (
    KMeans,
    KMeansResult,
    MiniBatchKMeans,
    kmeans_plus_plus_init,
)
from .metrics import (
    adjusted_rand_index,
    inertia,
    normalized_mutual_information,
    pairwise_distances,
    silhouette_samples,
    silhouette_score,
)
from .semi_kmeans import SemiSupervisedKMeans

__all__ = [
    "ClusteringEngine",
    "ClusteringOutcome",
    "KMeans",
    "MiniBatchKMeans",
    "SemiSupervisedKMeans",
    "KMeansResult",
    "kmeans_plus_plus_init",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "silhouette_score",
    "silhouette_samples",
    "pairwise_distances",
    "inertia",
]
