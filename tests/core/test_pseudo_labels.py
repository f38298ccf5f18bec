"""Tests for bias-reduced pseudo-label generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusteringEngine
from repro.clustering.kmeans import KMeans
from repro.core.config import ClusteringConfig
from repro.core.pseudo_labels import generate_pseudo_labels


def clustered_embeddings(seed=0):
    """Four well-separated blobs: classes 0/1 seen, 2/3 novel."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [10, 0], [0, 10], [10, 10]], dtype=float)
    embeddings = np.vstack([rng.normal(c, 0.4, size=(30, 2)) for c in centers])
    labels = np.repeat([0, 1, 2, 3], 30)
    return embeddings, labels


class TestGeneratePseudoLabels:
    def setup_method(self):
        self.embeddings, self.labels = clustered_embeddings()
        # Labeled nodes: 10 from each seen class (internal ids 0 and 1).
        self.labeled_indices = np.concatenate([
            np.where(self.labels == 0)[0][:10],
            np.where(self.labels == 1)[0][:10],
        ])
        self.labeled_internal = np.array([0] * 10 + [1] * 10)

    def generate(self, rho=75.0, **kwargs):
        return generate_pseudo_labels(
            self.embeddings,
            labeled_indices=self.labeled_indices,
            labeled_internal_labels=self.labeled_internal,
            num_seen_classes=2,
            num_clusters=4,
            rho=rho,
            **kwargs,
        )

    def test_pseudo_labels_only_on_unlabeled_nodes(self):
        pseudo = self.generate()
        assert np.intersect1d(pseudo.node_indices, self.labeled_indices).size == 0

    def test_seen_class_pseudo_labels_are_aligned(self):
        pseudo = self.generate(rho=100.0)
        lookup = pseudo.label_lookup(self.embeddings.shape[0])
        # Unlabeled nodes of true class 0 should receive internal label 0.
        unlabeled_class0 = np.setdiff1d(np.where(self.labels == 0)[0], self.labeled_indices)
        assigned = lookup[unlabeled_class0]
        assigned = assigned[assigned >= 0]
        assert assigned.size > 0
        assert (assigned == 0).mean() > 0.9

    def test_novel_clusters_get_ids_beyond_seen(self):
        pseudo = self.generate(rho=100.0)
        lookup = pseudo.label_lookup(self.embeddings.shape[0])
        novel_nodes = np.where(self.labels >= 2)[0]
        assigned = lookup[novel_nodes]
        assigned = assigned[assigned >= 0]
        assert assigned.size > 0
        assert (assigned >= 2).mean() > 0.9

    def test_rho_controls_selection_size(self):
        small = self.generate(rho=25.0)
        large = self.generate(rho=100.0)
        assert small.num_selected < large.num_selected
        # rho=100 keeps every unlabeled node.
        assert large.num_selected == self.embeddings.shape[0] - self.labeled_indices.shape[0]

    def test_selected_nodes_are_most_confident(self):
        pseudo = self.generate(rho=50.0)
        selected_confidence = pseudo.confidence[pseudo.node_indices]
        unselected = np.setdiff1d(
            np.setdiff1d(np.arange(self.embeddings.shape[0]), self.labeled_indices),
            pseudo.node_indices,
        )
        if unselected.size:
            # Worst selected node is at least as confident as the median unselected one.
            assert selected_confidence.min() >= np.median(pseudo.confidence[unselected]) - 1e-9

    def test_invalid_rho_raises(self):
        with pytest.raises(ValueError):
            self.generate(rho=0.0)
        with pytest.raises(ValueError):
            self.generate(rho=150.0)

    def test_reuse_precomputed_clustering(self):
        clusters = KMeans(4, seed=0).fit(self.embeddings)
        pseudo = self.generate(cluster_result=clusters)
        assert pseudo.cluster_result is clusters

    def test_label_lookup_dense_format(self):
        pseudo = self.generate(rho=50.0)
        lookup = pseudo.label_lookup(self.embeddings.shape[0])
        assert lookup.shape[0] == self.embeddings.shape[0]
        assert (lookup[pseudo.node_indices] == pseudo.labels).all()
        unselected_mask = np.ones(self.embeddings.shape[0], dtype=bool)
        unselected_mask[pseudo.node_indices] = False
        assert (lookup[unselected_mask] == -1).all()

    def test_mini_batch_path(self):
        engine = ClusteringEngine(ClusteringConfig(strategy="minibatch", sample_size=32))
        pseudo = self.generate(engine=engine)
        assert pseudo.clustering.strategy == "minibatch"
        assert pseudo.num_selected > 0
