"""Tests for K-Means, mini-batch K-Means, and k-means++ seeding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.kmeans import (
    KMeans,
    MiniBatchKMeans,
    kmeans_plus_plus_init,
)


def blobs(num_per_cluster=50, centers=((0, 0), (10, 10), (-10, 10)), std=0.5, seed=0):
    rng = np.random.default_rng(seed)
    data, labels = [], []
    for idx, center in enumerate(centers):
        data.append(rng.normal(center, std, size=(num_per_cluster, len(center))))
        labels.extend([idx] * num_per_cluster)
    return np.vstack(data), np.asarray(labels)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        data, labels = blobs()
        result = KMeans(3, seed=0).fit(data)
        # Each cluster should be pure.
        for cluster in range(3):
            members = labels[result.labels == cluster]
            assert members.shape[0] > 0
            values, counts = np.unique(members, return_counts=True)
            assert counts.max() / members.shape[0] == pytest.approx(1.0)

    def test_centers_close_to_true_means(self):
        data, _ = blobs()
        result = KMeans(3, seed=0).fit(data)
        true_centers = np.array([[0, 0], [10, 10], [-10, 10]], dtype=float)
        for center in true_centers:
            distances = np.linalg.norm(result.centers - center, axis=1)
            assert distances.min() < 0.5

    def test_inertia_decreases_with_more_clusters(self):
        data, _ = blobs(std=2.0)
        inertia_2 = KMeans(2, seed=0).fit(data).inertia
        inertia_3 = KMeans(3, seed=0).fit(data).inertia
        inertia_6 = KMeans(6, seed=0).fit(data).inertia
        assert inertia_3 <= inertia_2
        assert inertia_6 <= inertia_3

    def test_deterministic_for_fixed_seed(self):
        data, _ = blobs()
        a = KMeans(3, seed=5).fit(data)
        b = KMeans(3, seed=5).fit(data)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.centers, b.centers)

    def test_initial_centers_respected(self):
        data, _ = blobs()
        initial = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        result = KMeans(3, seed=0).fit(data, initial_centers=initial)
        assert result.inertia < 200

    def test_single_cluster(self):
        data, _ = blobs()
        result = KMeans(1, seed=0).fit(data)
        assert (result.labels == 0).all()
        np.testing.assert_allclose(result.centers[0], data.mean(axis=0), atol=1e-8)

    def test_more_clusters_than_samples_raises(self):
        with pytest.raises(ValueError):
            KMeans(10).fit(np.zeros((3, 2)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            KMeans(0)
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros(5))

    def test_duplicate_points_do_not_crash(self):
        data = np.ones((20, 3))
        result = KMeans(2, seed=0).fit(data)
        assert result.labels.shape == (20,)
        assert np.isfinite(result.centers).all()

    def test_distances_to_center(self):
        data, _ = blobs()
        result = KMeans(3, seed=0).fit(data)
        distances = result.distances_to_center(data)
        assert distances.shape == (data.shape[0],)
        assert (distances >= 0).all()
        assert distances.mean() < 2.0

    def test_fit_predict(self):
        data, _ = blobs()
        labels = KMeans(3, seed=0).fit_predict(data)
        assert set(np.unique(labels)) == {0, 1, 2}


class TestKMeansPlusPlus:
    def test_selects_distinct_centers_for_separated_data(self):
        data, labels = blobs()
        rng = np.random.default_rng(0)
        centers = kmeans_plus_plus_init(data, 3, rng)
        # Each chosen center should come from a different blob.
        assignments = np.linalg.norm(
            data[:, None, :] - centers[None, :, :], axis=2
        ).argmin(axis=1)
        assert len(np.unique(labels[np.unique(assignments, return_index=True)[1]])) >= 2

    def test_handles_identical_points(self):
        data = np.zeros((10, 2))
        centers = kmeans_plus_plus_init(data, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)


class TestMiniBatchKMeans:
    def test_approximates_full_kmeans_on_blobs(self):
        data, labels = blobs(num_per_cluster=200)
        result = MiniBatchKMeans(3, batch_size=64, max_iter=100, seed=0).fit(data)
        # Clusters should be mostly pure.
        purity = 0.0
        for cluster in range(3):
            members = labels[result.labels == cluster]
            if members.shape[0]:
                purity += np.bincount(members).max()
        assert purity / data.shape[0] > 0.9

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            MiniBatchKMeans(5).fit(np.zeros((3, 2)))

    def test_invalid_inputs_raise_like_kmeans(self):
        data, _ = blobs()
        for num_clusters in (0, -2):
            with pytest.raises(ValueError, match="num_clusters must be positive"):
                MiniBatchKMeans(num_clusters).fit(data)
        for bad in (np.zeros(5), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="data must be a 2-D array"):
                MiniBatchKMeans(2).fit(bad)

    def test_fit_predict_shape(self):
        data, _ = blobs()
        labels = MiniBatchKMeans(3, seed=1).fit_predict(data)
        assert labels.shape == (data.shape[0],)


class TestPropertyBased:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_every_cluster_id_within_range(self, num_clusters, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(60, 3))
        result = KMeans(num_clusters, seed=seed).fit(data)
        assert result.labels.min() >= 0
        assert result.labels.max() < num_clusters
        assert result.centers.shape == (num_clusters, 3)

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_inertia_matches_assignment(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(50, 2))
        result = KMeans(3, seed=seed).fit(data)
        manual = ((data - result.centers[result.labels]) ** 2).sum()
        assert result.inertia == pytest.approx(manual, rel=1e-6)
