"""K-Means clustering: full-batch Lloyd iterations and a mini-batch variant.

OpenIMA uses K-Means both for bias-reduced pseudo-label generation during
training and for the two-stage inference step.  The paper uses classic
K-Means (k-means++ seeding) for the five mid-size graphs and mini-batch
K-Means (Sculley, WWW 2010) for ogbn-Arxiv / ogbn-Products.

Scaling model
-------------
The hot paths run as array code; Python loops only over iterations, row
chunks and k-means++'s sequential picks:

* Each fit computes the rows' squared norms ``||x||^2`` once
  (:func:`_row_norms`) and hands them to k-means++, to every assignment
  block and to the final pass; a mini-batch gathers its rows' norms.
* Assignment computes squared distances in row chunks of ``chunk_size``
  samples (default ``_DEFAULT_CHUNK``), bounding peak memory at
  O(chunk_size * k) instead of the O(n * k) full distance matrix while
  keeping BLAS-backed ``data @ centers.T`` throughput.  Each block is built
  in place as ``(||x||^2 + ||c||^2) - 2 (x . c)``; only the per-sample
  argmin / min are retained.
* The centroid update sums every cluster with one ``np.bincount`` keyed on
  ``label * d + column``, plus a ``bincount`` for the sizes — O(n * d) with
  no sort.  bincount adds each cluster's rows in row order, so the sums are
  bitwise equal to an ``np.add.at`` scatter-add into zeros.

One Lloyd iteration is therefore O(n * k * d) FLOPs and
O(chunk_size * k + k * d) extra memory for any ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class KMeansResult:
    """Outcome of a K-Means run.

    Attributes
    ----------
    labels:
        Cluster assignment per sample, shape (n,).
    centers:
        Cluster centroids, shape (k, d).
    inertia:
        Sum of squared distances of samples to their assigned center.
    n_iter:
        Number of Lloyd iterations executed.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    n_iter: int

    def distances_to_center(self, data: np.ndarray) -> np.ndarray:
        """Euclidean distance of each sample to its assigned centroid."""
        diffs = data - self.centers[self.labels]
        return np.linalg.norm(diffs, axis=1)


def _row_norms(data: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return (data ** 2).sum(axis=1)


def _pairwise_sq_distances(data: np.ndarray, centers: np.ndarray,
                           data_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances between every sample and every center.

    ``data_sq`` holds the rows' squared norms (:func:`_row_norms`) when the
    caller already has them.  The block is ``(||x||^2 + ||c||^2) - 2 (x . c)``
    in that order, clipped at zero.
    """
    if data_sq is None:
        data_sq = _row_norms(data)
    cross = data @ centers.T
    cross *= 2.0
    block = np.add.outer(data_sq, _row_norms(centers))
    block -= cross
    return np.maximum(block, 0.0, out=block)


#: Row-chunk size for the memory-bounded assignment step; at the default the
#: temporary distance block stays below ~8 MB for k <= 64 centers.
_DEFAULT_CHUNK = 16384


def _assign_labels(data: np.ndarray, centers: np.ndarray,
                   chunk_size: Optional[int] = None,
                   data_sq: Optional[np.ndarray] = None) -> tuple:
    """Nearest-center assignment with chunked distance computation.

    Returns ``(labels, min_sq_distances)`` while never materializing more
    than a ``chunk_size x k`` distance block.  ``data_sq`` are the rows'
    squared norms, computed here when not given.
    """
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    chunk = chunk_size if chunk_size is not None else _DEFAULT_CHUNK
    if data_sq is None:
        data_sq = _row_norms(data)
    num_samples = data.shape[0]
    labels = np.empty(num_samples, dtype=np.int64)
    min_sq = np.empty(num_samples, dtype=np.float64)
    for start in range(0, num_samples, chunk):
        stop = min(start + chunk, num_samples)
        block = _pairwise_sq_distances(data[start:stop], centers, data_sq[start:stop])
        block_labels = block.argmin(axis=1)
        labels[start:stop] = block_labels
        min_sq[start:stop] = block[np.arange(stop - start), block_labels]
    return labels, min_sq


def _cluster_sums(data: np.ndarray, labels: np.ndarray, num_clusters: int) -> tuple:
    """Per-cluster feature sums and member counts.

    One ``np.bincount`` keyed on ``label * d + column`` adds each cluster's
    rows in row order, the same additions as an ``np.add.at`` scatter-add.
    """
    num_features = data.shape[1]
    keys = labels[:, None] * num_features + np.arange(num_features)
    sums = np.bincount(keys.ravel(), weights=data.ravel(),
                       minlength=num_clusters * num_features)
    counts = np.bincount(labels, minlength=num_clusters).astype(np.float64)
    return sums.reshape(num_clusters, num_features), counts


def _sculley_update(centers: np.ndarray, counts: np.ndarray, batch: np.ndarray,
                    assignments: np.ndarray, num_clusters: int) -> None:
    """Sculley's per-center convex update, applied to ``centers`` in place.

    ``counts`` accumulates across batches and the learning rate is the
    batch share of the running count; every non-empty cluster is updated at
    once.  Shared by :class:`MiniBatchKMeans` and the clustering engine's
    ``online`` streaming strategy, so the numerically sensitive update rule
    has exactly one implementation.
    """
    sums, batch_counts = _cluster_sums(batch, assignments, num_clusters)
    updated = batch_counts > 0
    counts[updated] += batch_counts[updated]
    rate = batch_counts[updated] / counts[updated]
    means = sums[updated] / batch_counts[updated, None]
    centers[updated] = (1.0 - rate[:, None]) * centers[updated] + \
        rate[:, None] * means


def kmeans_plus_plus_init(data: np.ndarray, num_clusters: int,
                          rng: np.random.Generator,
                          data_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007).

    ``data_sq`` are the rows' squared norms, computed here when not given.
    """
    if data_sq is None:
        data_sq = _row_norms(data)
    num_samples = data.shape[0]
    centers = np.empty((num_clusters, data.shape[1]))
    first = rng.integers(num_samples)
    centers[0] = data[first]
    closest_sq = _pairwise_sq_distances(data, centers[:1], data_sq).ravel()
    for index in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with chosen centers: pick randomly.
            choice = rng.integers(num_samples)
        else:
            probabilities = closest_sq / total
            choice = rng.choice(num_samples, p=probabilities)
        centers[index] = data[choice]
        new_sq = _pairwise_sq_distances(data, centers[index: index + 1], data_sq)
        np.minimum(closest_sq, new_sq.ravel(), out=closest_sq)
    return centers


def _check_num_clusters(num_clusters: int) -> None:
    if num_clusters < 1:
        raise ValueError("num_clusters must be positive")


def _fit_input(data: np.ndarray, num_clusters: int) -> np.ndarray:
    """``data`` as a float64 matrix with at least ``num_clusters`` rows."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D array (samples x features)")
    if data.shape[0] < num_clusters:
        raise ValueError(f"cannot form {num_clusters} clusters from {data.shape[0]} samples")
    return data


class KMeans:
    """Full-batch K-Means with k-means++ initialization and multiple restarts."""

    def __init__(self, num_clusters: int, max_iter: int = 100, tol: float = 1e-6,
                 n_init: int = 3, seed: int = 0, chunk_size: Optional[int] = None):
        _check_num_clusters(num_clusters)
        self.num_clusters = num_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self.seed = seed
        self.chunk_size = chunk_size

    def fit(self, data: np.ndarray, initial_centers: Optional[np.ndarray] = None) -> KMeansResult:
        """Run K-Means and return the best restart by inertia."""
        data = _fit_input(data, self.num_clusters)
        data_sq = _row_norms(data)
        rng = np.random.default_rng(self.seed)
        best: Optional[KMeansResult] = None
        restarts = 1 if initial_centers is not None else self.n_init
        for _ in range(restarts):
            if initial_centers is not None:
                centers = np.array(initial_centers, dtype=np.float64, copy=True)
            else:
                centers = kmeans_plus_plus_init(data, self.num_clusters, rng, data_sq)
            result = self._lloyd(data, centers, data_sq)
            if best is None or result.inertia < best.inertia:
                best = result
        return best

    def fit_predict(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).labels

    def _lloyd(self, data: np.ndarray, centers: np.ndarray,
               data_sq: Optional[np.ndarray] = None) -> KMeansResult:
        if data_sq is None:
            data_sq = _row_norms(data)
        labels = np.zeros(data.shape[0], dtype=np.int64)
        _iteration = 0
        for _iteration in range(1, self.max_iter + 1):
            labels, min_sq = _assign_labels(data, centers, self.chunk_size, data_sq)
            sums, counts = _cluster_sums(data, labels, self.num_clusters)
            new_centers = centers.copy()
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            if not nonempty.all():
                # Re-seed empty clusters at the point farthest from its center.
                new_centers[~nonempty] = data[min_sq.argmax()]
            shift = np.linalg.norm(new_centers - centers)
            centers = new_centers
            if shift <= self.tol:
                break
        labels, min_sq = _assign_labels(data, centers, self.chunk_size, data_sq)
        inertia = float(min_sq.sum())
        return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=_iteration)


class MiniBatchKMeans:
    """Mini-batch K-Means (Sculley, WWW 2010) for the large-graph profiles."""

    def __init__(self, num_clusters: int, batch_size: int = 1024, max_iter: int = 100,
                 seed: int = 0, chunk_size: Optional[int] = None):
        _check_num_clusters(num_clusters)
        self.num_clusters = num_clusters
        self.batch_size = batch_size
        self.max_iter = max_iter
        self.seed = seed
        self.chunk_size = chunk_size

    def fit(self, data: np.ndarray,
            initial_centers: Optional[np.ndarray] = None) -> KMeansResult:
        data = _fit_input(data, self.num_clusters)
        data_sq = _row_norms(data)
        rng = np.random.default_rng(self.seed)
        if initial_centers is not None:
            centers = np.array(initial_centers, dtype=np.float64, copy=True)
        else:
            centers = kmeans_plus_plus_init(data, self.num_clusters, rng, data_sq)
        counts = np.zeros(self.num_clusters)
        _iteration = 0
        for _iteration in range(1, self.max_iter + 1):
            batch_idx = rng.choice(data.shape[0], size=min(self.batch_size, data.shape[0]),
                                   replace=False)
            batch = data.take(batch_idx, axis=0)
            assignments, _ = _assign_labels(batch, centers, self.chunk_size,
                                            data_sq.take(batch_idx))
            _sculley_update(centers, counts, batch, assignments, self.num_clusters)
        labels, min_sq = _assign_labels(data, centers, self.chunk_size, data_sq)
        inertia = float(min_sq.sum())
        return KMeansResult(labels=labels, centers=centers, inertia=inertia, n_iter=_iteration)

    def fit_predict(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).labels


def cluster_embeddings(embeddings: np.ndarray, num_clusters: int, seed: int = 0,
                       mini_batch: bool = False, batch_size: int = 1024) -> KMeansResult:
    """Convenience wrapper choosing between K-Means and mini-batch K-Means."""
    if mini_batch:
        return MiniBatchKMeans(num_clusters, batch_size=batch_size, seed=seed).fit(embeddings)
    return KMeans(num_clusters, seed=seed).fit(embeddings)
