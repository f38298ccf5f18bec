"""Tests for the two-stage inference procedure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import head_predict, two_stage_predict
from repro.core.labels import LabelSpace
from repro.datasets.splits import OpenWorldDataset, make_open_world_split
from repro.graphs.graph import Graph


def ideal_dataset(seed=0):
    """A dataset whose *features* are already perfectly clustered embeddings."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [12, 0], [0, 12], [12, 12]], dtype=float)
    features = np.vstack([rng.normal(c, 0.4, size=(40, 2)) for c in centers])
    labels = np.repeat(np.arange(4), 40)
    order = rng.permutation(160)
    features, labels = features[order], labels[order]
    graph = Graph(features=features, edge_index=np.zeros((2, 0), dtype=int), labels=labels,
                  name="ideal")
    split = make_open_world_split(graph, labels_per_class=10, seed=seed,
                                  seen_classes=np.array([0, 1]))
    return OpenWorldDataset(graph=graph, split=split, name="ideal")


class TestTwoStagePredict:
    def test_near_perfect_on_ideal_embeddings(self):
        dataset = ideal_dataset()
        result = two_stage_predict(dataset.graph.features, dataset, seed=0)
        test_nodes = dataset.split.test_nodes
        correct_seen = 0
        seen_total = 0
        for node in test_nodes:
            if dataset.labels[node] in dataset.split.seen_classes:
                seen_total += 1
                correct_seen += int(result.predictions[node] == dataset.labels[node])
        assert correct_seen / seen_total > 0.95

    def test_novel_predictions_use_fresh_ids(self):
        dataset = ideal_dataset()
        result = two_stage_predict(dataset.graph.features, dataset, seed=0)
        novel_nodes = dataset.split.test_nodes[
            np.isin(dataset.labels[dataset.split.test_nodes], dataset.split.novel_classes)
        ]
        novel_predictions = result.predictions[novel_nodes]
        seen = set(dataset.split.seen_classes.tolist())
        assert (np.array([p not in seen for p in novel_predictions])).mean() > 0.9

    def test_num_clusters_matches_label_space(self):
        dataset = ideal_dataset()
        result = two_stage_predict(dataset.graph.features, dataset, seed=0)
        assert result.cluster_result.centers.shape[0] == 4
        assert result.label_space.num_total == 4

    def test_override_num_novel_classes(self):
        dataset = ideal_dataset()
        result = two_stage_predict(dataset.graph.features, dataset, num_novel_classes=5, seed=0)
        assert result.cluster_result.centers.shape[0] == 7

    def test_invalid_num_novel_raises(self):
        dataset = ideal_dataset()
        with pytest.raises(ValueError):
            two_stage_predict(dataset.graph.features, dataset, num_novel_classes=0)

    def test_embedding_shape_mismatch_raises(self):
        dataset = ideal_dataset()
        with pytest.raises(ValueError):
            two_stage_predict(dataset.graph.features[:10], dataset)

    def test_mini_batch_kmeans_path(self):
        dataset = ideal_dataset()
        result = two_stage_predict(dataset.graph.features, dataset, seed=0, mini_batch=True)
        assert result.predictions.shape[0] == dataset.graph.num_nodes


class TestHeadPredict:
    def test_argmax_and_label_space_translation(self):
        space = LabelSpace(seen_classes=np.array([2, 5]), num_novel=1)
        embeddings = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.6]])
        weight = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])  # 2 features -> 3 classes
        predictions = head_predict(embeddings, weight, space)
        assert predictions[0] == 2   # internal 0 -> original 2
        assert predictions[1] == 5   # internal 1 -> original 5
