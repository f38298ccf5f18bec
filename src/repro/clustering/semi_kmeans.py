"""Semi-supervised (constrained) K-Means, as used in GCD (Vaze et al., 2022).

The paper compares against the GCD-style semi-supervised K-Means, which forces
labeled samples of the same class into the same cluster during the assignment
step, but finds that plain K-Means works better on the graph benchmarks.  We
implement it so the comparison can be reproduced (DESIGN.md ablation list).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .kmeans import (
    KMeansResult,
    _assign_labels,
    _cluster_sums,
    _pairwise_sq_distances,
    _row_norms,
    kmeans_plus_plus_init,
)


def _reseed_from_farthest(data: np.ndarray, assigned_sq: np.ndarray,
                          count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct replacement centers from the farthest-point pool.

    The pool is the ``4 * count`` samples farthest from their assigned
    center (distinct picks, so two empty clusters never collapse onto the
    same point); the draw uses the supplied clustering RNG, never numpy's
    global state.  In the degenerate case of more empty clusters than
    samples the draw falls back to sampling with replacement — duplicate
    centers are unavoidable when ``n < num_clusters``.
    """
    pool_size = int(min(data.shape[0], max(count, 4 * count)))
    pool = np.argsort(-assigned_sq, kind="stable")[:pool_size]
    chosen = rng.choice(pool, size=count, replace=pool.shape[0] < count)
    return data[chosen]


class SemiSupervisedKMeans:
    """K-Means whose labeled samples are pinned to class-specific clusters.

    The first ``num_seen`` clusters correspond to the seen classes (in the
    order given by ``seen_classes``); labeled samples are always assigned to
    the cluster of their own class.  Unlabeled samples are assigned to the
    nearest of all clusters, exactly as in GCD.
    """

    def __init__(self, num_clusters: int, max_iter: int = 100, tol: float = 1e-6,
                 seed: int = 0, chunk_size: Optional[int] = None):
        self.num_clusters = num_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.chunk_size = chunk_size

    def fit(
        self,
        data: np.ndarray,
        labeled_indices: np.ndarray,
        labeled_classes: np.ndarray,
        seen_classes: Optional[np.ndarray] = None,
    ) -> KMeansResult:
        """Cluster ``data`` with labeled samples constrained to their class cluster.

        Parameters
        ----------
        data:
            Sample matrix of shape (n, d) covering labeled and unlabeled points.
        labeled_indices:
            Row indices of the labeled samples.
        labeled_classes:
            Class of each labeled sample (same length as ``labeled_indices``).
        seen_classes:
            The distinct seen classes; defaults to the sorted unique labels.
        """
        data = np.asarray(data, dtype=np.float64)
        labeled_indices = np.asarray(labeled_indices, dtype=np.int64)
        labeled_classes = np.asarray(labeled_classes, dtype=np.int64)
        if labeled_indices.shape[0] != labeled_classes.shape[0]:
            raise ValueError("labeled_indices and labeled_classes must align")
        if seen_classes is None:
            seen_classes = np.unique(labeled_classes)
        seen_classes = np.asarray(seen_classes, dtype=np.int64)
        if seen_classes.shape[0] > self.num_clusters:
            raise ValueError("more seen classes than clusters")

        class_to_cluster = {cls: idx for idx, cls in enumerate(seen_classes)}
        pinned = np.array([class_to_cluster[cls] for cls in labeled_classes], dtype=np.int64)

        data_sq = _row_norms(data)
        rng = np.random.default_rng(self.seed)
        centers = kmeans_plus_plus_init(data, self.num_clusters, rng, data_sq)
        # Initialize the seen-class clusters at the labeled class means.
        for cls, cluster in class_to_cluster.items():
            members = data[labeled_indices[labeled_classes == cls]]
            if members.shape[0]:
                centers[cluster] = members.mean(axis=0)

        labels = np.zeros(data.shape[0], dtype=np.int64)
        _iteration = 0
        for _iteration in range(1, self.max_iter + 1):
            labels, min_sq = _assign_labels(data, centers, self.chunk_size, data_sq)
            labels[labeled_indices] = pinned
            sums, counts = _cluster_sums(data, labels, self.num_clusters)
            new_centers = centers.copy()
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            if not nonempty.all():
                # Re-seed empty clusters from the farthest-point pool using
                # the clustering RNG, so the result stays deterministic in
                # ``seed`` and independent of numpy's global state.  (They
                # previously kept their stale centers and could stay empty
                # forever.)
                empty = np.where(~nonempty)[0]
                new_centers[empty] = _reseed_from_farthest(
                    data, min_sq, empty.shape[0], rng)
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            if shift <= self.tol:
                break
        labels, assigned_sq = _assign_labels(data, centers, self.chunk_size, data_sq)
        labels[labeled_indices] = pinned
        if labeled_indices.size:
            # Pinned samples pay the distance to their class cluster, not
            # to the nearest center.
            assigned_sq[labeled_indices] = _pairwise_sq_distances(
                data[labeled_indices], centers, data_sq[labeled_indices]
            )[np.arange(labeled_indices.shape[0]), pinned]
        inertia = float(assigned_sq.sum())
        return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=_iteration)
