"""Bitwise parity of the K-Means kernels with the Segments-based versions.

The ``reference_*`` functions are the kernels K-Means ran before the row
norms were cached and the centroid sums moved to ``np.bincount``: the
out-of-place distance block that recomputes ``||x||^2`` per call, the
``Segments`` CSR incidence sum, and k-means++ over them.  Installing them in
place of the current kernels (the ``reference_kernels`` fixture) reproduces
those fits, and every output must be equal with no tolerance: labels,
centers, inertia and ``n_iter`` decide pseudo labels and served answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusteringEngine, kmeans, semi_kmeans
from repro.clustering.kmeans import (
    KMeans,
    MiniBatchKMeans,
    _assign_labels,
    _cluster_sums,
    _pairwise_sq_distances,
    kmeans_plus_plus_init,
)
from repro.clustering.semi_kmeans import SemiSupervisedKMeans
from repro.core.config import ClusteringConfig
from repro.nn.segment import Segments


def reference_pairwise_sq_distances(data, centers, data_sq=None):
    """Squared distances, norms recomputed (``data_sq`` is ignored)."""
    data_sq = (data ** 2).sum(axis=1, keepdims=True)
    centers_sq = (centers ** 2).sum(axis=1)
    cross = data @ centers.T
    return np.maximum(data_sq + centers_sq - 2.0 * cross, 0.0)


def reference_cluster_sums(data, labels, num_clusters):
    """Per-cluster sums over one by-cluster grouping (CSR incidence matmul)."""
    members = Segments(labels, num_clusters)
    return members.sum(data), members.counts().astype(np.float64)


def reference_kmeans_plus_plus_init(data, num_clusters, rng, data_sq=None):
    """k-means++ seeding over :func:`reference_pairwise_sq_distances`."""
    num_samples = data.shape[0]
    centers = np.empty((num_clusters, data.shape[1]))
    first = rng.integers(num_samples)
    centers[0] = data[first]
    closest_sq = reference_pairwise_sq_distances(data, centers[:1]).ravel()
    for index in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 0:
            choice = rng.integers(num_samples)
        else:
            probabilities = closest_sq / total
            choice = rng.choice(num_samples, p=probabilities)
        centers[index] = data[choice]
        new_sq = reference_pairwise_sq_distances(data, centers[index: index + 1]).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


@pytest.fixture
def reference_kernels(monkeypatch):
    """Call ``install()`` to run every later fit on the reference kernels."""
    def install():
        for module in (kmeans, semi_kmeans):
            monkeypatch.setattr(module, "_pairwise_sq_distances",
                                reference_pairwise_sq_distances)
            monkeypatch.setattr(module, "_cluster_sums", reference_cluster_sums)
            monkeypatch.setattr(module, "kmeans_plus_plus_init",
                                reference_kmeans_plus_plus_init)
    return install


def embeddings(num_samples=600, num_clusters=6, dim=16, seed=0):
    """Overlapping blobs over several magnitudes, so any reordered float
    operation shows in the last bits."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(num_clusters, dim))
    assignments = rng.integers(num_clusters, size=num_samples)
    noise = rng.normal(size=(num_samples, dim)) * rng.lognormal(sigma=1.0, size=(num_samples, 1))
    return centers[assignments] + noise


def assert_same_result(result, reference):
    assert np.array_equal(result.labels, reference.labels)
    assert np.array_equal(result.centers, reference.centers)
    assert result.inertia == reference.inertia
    assert result.n_iter == reference.n_iter


class TestKernels:
    @pytest.mark.parametrize("dim", [3, 16, 40])
    def test_distance_block(self, dim):
        data = embeddings(dim=dim, seed=dim)
        centers = data[::97]
        reference = reference_pairwise_sq_distances(data, centers)
        assert np.array_equal(_pairwise_sq_distances(data, centers), reference)
        norms = (data ** 2).sum(axis=1)
        assert np.array_equal(_pairwise_sq_distances(data, centers, norms), reference)

    @pytest.mark.parametrize("num_clusters", [1, 7, 30])
    def test_cluster_sums_with_empty_clusters(self, num_clusters):
        data = embeddings(seed=num_clusters)
        # Every third cluster id stays unused.
        labels = np.random.default_rng(num_clusters).choice(
            np.arange(0, num_clusters, 3), size=data.shape[0])
        sums, counts = _cluster_sums(data, labels, num_clusters)
        ref_sums, ref_counts = reference_cluster_sums(data, labels, num_clusters)
        assert np.array_equal(sums, ref_sums)
        assert np.array_equal(counts, ref_counts)

    def test_kmeans_plus_plus(self):
        data = embeddings(seed=3)
        centers = kmeans_plus_plus_init(data, 9, np.random.default_rng(3))
        reference = reference_kmeans_plus_plus_init(data, 9, np.random.default_rng(3))
        assert np.array_equal(centers, reference)

    @pytest.mark.parametrize("chunk_size", [1, 64, 599, 10_000])
    def test_chunked_assignment(self, reference_kernels, chunk_size):
        # A one-row chunk multiplies through another BLAS kernel than a full
        # block, so compare chunk for chunk, not with one full block.
        data = embeddings(seed=4)
        centers = data[:8]
        labels, min_sq = _assign_labels(data, centers, chunk_size)
        reference_kernels()
        ref_labels, ref_min_sq = _assign_labels(data, centers, chunk_size)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(min_sq, ref_min_sq)


class TestFits:
    def test_kmeans_restarts_and_chunks(self, reference_kernels):
        data = embeddings(seed=5)
        fit = KMeans(6, n_init=3, seed=5, chunk_size=128).fit(data)
        reference_kernels()
        assert_same_result(fit, KMeans(6, n_init=3, seed=5, chunk_size=128).fit(data))

    def test_kmeans_reseeds_empty_clusters(self, reference_kernels):
        data = embeddings(num_samples=80, num_clusters=2, seed=6)
        # One center no sample is nearest to: empty on the first iteration.
        initial = np.vstack([data[:3], data[0] + 100.0])
        fit = KMeans(4, seed=6).fit(data, initial_centers=initial)
        reference_kernels()
        assert_same_result(fit, KMeans(4, seed=6).fit(data, initial_centers=initial))

    @pytest.mark.parametrize("batch_size", [64, 600, 1024])
    def test_minibatch(self, reference_kernels, batch_size):
        data = embeddings(seed=7)
        fit = MiniBatchKMeans(6, batch_size=batch_size, max_iter=40, seed=7,
                              chunk_size=100).fit(data)
        reference_kernels()
        assert_same_result(fit, MiniBatchKMeans(6, batch_size=batch_size, max_iter=40,
                                                seed=7, chunk_size=100).fit(data))

    def test_semi_supervised(self, reference_kernels):
        data = embeddings(seed=8)
        labeled = np.arange(0, 600, 5)
        classes = np.random.default_rng(8).choice([10, 20, 30], size=labeled.shape[0])

        def fit():
            return SemiSupervisedKMeans(7, seed=8, chunk_size=256).fit(data, labeled, classes)

        result = fit()
        reference_kernels()
        assert_same_result(result, fit())


class TestEngine:
    CONFIGS = {
        "exact": ClusteringConfig(strategy="exact", warm_start=True),
        "minibatch": ClusteringConfig(strategy="minibatch", sample_size=300,
                                      reassign_chunk_size=128, warm_start=True),
        "online": ClusteringConfig(strategy="online", sample_size=300,
                                   reassign_chunk_size=128),
    }

    @staticmethod
    def run(config, data):
        """Two cold clusterings, then three refreshes (the last two warm)."""
        engine = ClusteringEngine(config, seed=9, batch_size=128)
        results = [engine.cluster(data, 6), engine.cluster(data, 6, mini_batch=True)]
        for step in range(3):
            results.append(engine.refresh(data + 0.01 * step, 6).result)
        return results

    @pytest.mark.parametrize("strategy", sorted(CONFIGS))
    def test_cluster_and_refresh(self, reference_kernels, strategy):
        data = embeddings(seed=9)
        results = self.run(self.CONFIGS[strategy], data)
        reference_kernels()
        for result, reference in zip(results, self.run(self.CONFIGS[strategy], data),
                                     strict=True):
            assert_same_result(result, reference)
