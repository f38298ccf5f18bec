"""Tests for cluster-class alignment and clustering accuracy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment.alignment import (
    ClusterAlignment,
    align_clusters_to_classes,
    clustering_accuracy,
    contingency_matrix,
    hungarian_accuracy_mapping,
    remap_predictions,
)
from repro.metrics.accuracy import open_world_accuracy

from .test_hungarian import reference_hungarian


def reference_max_profit(profit):
    return reference_hungarian(profit.max() - profit)


def reference_align(cluster_labels, class_labels, num_clusters, known_classes,
                    total_num_classes=None):
    """Alignment with a per-node dict lookup and the scalar-loop solver."""
    known_classes = np.asarray(known_classes, dtype=np.int64)
    class_index = {cls: i for i, cls in enumerate(known_classes)}
    compact_classes = np.array([class_index[c] for c in class_labels], dtype=np.int64)
    counts = contingency_matrix(cluster_labels, compact_classes, num_clusters=num_clusters,
                                num_classes=known_classes.shape[0])
    rows, cols = reference_max_profit(counts.astype(np.float64))
    mapping = {}
    matched = []
    for cluster, class_pos in zip(rows, cols, strict=True):
        mapping[int(cluster)] = int(known_classes[class_pos])
        matched.append(int(cluster))
    matched = np.asarray(sorted(matched), dtype=np.int64)
    unmatched = np.setdiff1d(np.arange(num_clusters), matched)
    next_id = int(total_num_classes if total_num_classes is not None
                  else known_classes.max() + 1)
    for cluster in unmatched:
        mapping[int(cluster)] = next_id
        next_id += 1
    return ClusterAlignment(mapping=mapping, matched_clusters=matched,
                            unmatched_clusters=unmatched)


def reference_apply(alignment, cluster_labels):
    return np.array([alignment.mapping[int(c)] for c in cluster_labels], dtype=np.int64)


def reference_accuracy_mapping(predictions, targets):
    """Co-occurrence counts by a per-node loop, then the scalar-loop solver."""
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    pred_ids = np.unique(predictions)
    target_ids = np.unique(targets)
    pred_index = {p: i for i, p in enumerate(pred_ids)}
    target_index = {t: i for i, t in enumerate(target_ids)}
    counts = np.zeros((pred_ids.shape[0], target_ids.shape[0]), dtype=np.float64)
    for p, t in zip(predictions, targets, strict=True):
        counts[pred_index[p], target_index[t]] += 1
    rows, cols = reference_max_profit(counts)
    return {int(pred_ids[r]): int(target_ids[c]) for r, c in zip(rows, cols, strict=True)}


def reference_remap(predictions, targets):
    mapping = reference_accuracy_mapping(predictions, targets)
    return np.array([mapping.get(int(p), -1) for p in predictions], dtype=np.int64)


def reference_open_world_accuracy(predictions, targets, seen_classes):
    correct = reference_remap(predictions, targets) == targets
    seen_mask = np.isin(targets, seen_classes)
    return (float(correct.mean()), float(correct[seen_mask].mean()),
            float(correct[~seen_mask].mean()))


class TestContingency:
    def test_counts(self):
        clusters = np.array([0, 0, 1, 1, 2])
        classes = np.array([1, 1, 0, 1, 0])
        matrix = contingency_matrix(clusters, classes)
        assert matrix.shape == (3, 2)
        assert matrix[0, 1] == 2
        assert matrix[1, 0] == 1
        assert matrix.sum() == 5

    def test_explicit_sizes(self):
        matrix = contingency_matrix(np.array([0]), np.array([0]), num_clusters=4, num_classes=3)
        assert matrix.shape == (4, 3)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            contingency_matrix(np.array([0, 1]), np.array([0]))


class TestAlignment:
    def test_perfect_alignment(self):
        # Clusters 0,1,2 correspond exactly to classes 10,20,30.
        clusters = np.array([0, 0, 1, 1, 2, 2])
        classes = np.array([10, 10, 20, 20, 30, 30])
        alignment = align_clusters_to_classes(
            clusters, classes, num_clusters=3, known_classes=np.array([10, 20, 30])
        )
        assert alignment.mapping[0] == 10
        assert alignment.mapping[1] == 20
        assert alignment.mapping[2] == 30
        assert alignment.unmatched_clusters.size == 0

    def test_unmatched_clusters_get_novel_ids(self):
        clusters = np.array([0, 0, 1, 1])
        classes = np.array([5, 5, 7, 7])
        alignment = align_clusters_to_classes(
            clusters, classes, num_clusters=4, known_classes=np.array([5, 7]),
            total_num_classes=2,
        )
        assert set(alignment.unmatched_clusters.tolist()) == {2, 3}
        novel_ids = {alignment.mapping[2], alignment.mapping[3]}
        assert novel_ids == {2, 3}

    def test_apply_translates_labels(self):
        clusters = np.array([0, 1, 0, 2])
        classes = np.array([3, 4, 3, 3])
        alignment = align_clusters_to_classes(
            clusters[: 3], classes[: 3], num_clusters=3, known_classes=np.array([3, 4])
        )
        predictions = alignment.apply(clusters)
        assert predictions[0] == 3
        assert predictions[1] == 4
        # Cluster 2 was never seen in the labeled data -> novel id.
        assert predictions[3] not in (3, 4)

    def test_permuted_clusters_still_align(self):
        rng = np.random.default_rng(0)
        classes = rng.integers(0, 3, size=60)
        permutation = np.array([2, 0, 1])
        clusters = permutation[classes]
        alignment = align_clusters_to_classes(
            clusters, classes, num_clusters=3, known_classes=np.array([0, 1, 2])
        )
        recovered = alignment.apply(clusters)
        np.testing.assert_array_equal(recovered, classes)


class TestClusteringAccuracy:
    def test_perfect_after_permutation(self):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 4, size=100)
        permutation = np.array([3, 2, 0, 1])
        predictions = permutation[targets]
        assert clustering_accuracy(predictions, targets) == pytest.approx(1.0)

    def test_random_predictions_score_low(self):
        rng = np.random.default_rng(2)
        targets = rng.integers(0, 5, size=500)
        predictions = rng.integers(0, 5, size=500)
        assert clustering_accuracy(predictions, targets) < 0.5

    def test_mapping_is_injective(self):
        predictions = np.array([0, 0, 1, 1, 2, 2])
        targets = np.array([1, 1, 0, 0, 2, 2])
        mapping = hungarian_accuracy_mapping(predictions, targets)
        assert len(set(mapping.values())) == len(mapping)
        assert mapping[0] == 1 and mapping[1] == 0 and mapping[2] == 2

    def test_more_predicted_ids_than_targets(self):
        predictions = np.array([0, 1, 2, 3])
        targets = np.array([0, 0, 1, 1])
        accuracy = clustering_accuracy(predictions, targets)
        assert 0.0 <= accuracy <= 1.0

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_property_accuracy_bounds_and_permutation_invariance(self, num_classes, seed):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, num_classes, size=50)
        predictions = rng.integers(0, num_classes, size=50)
        accuracy = clustering_accuracy(predictions, targets)
        assert 0.0 <= accuracy <= 1.0
        permutation = rng.permutation(num_classes)
        assert clustering_accuracy(permutation[predictions], targets) == pytest.approx(accuracy)


class TestAgainstDictLoops:
    """Array lookups and bincount counts give the per-node loops' outputs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_alignment_with_non_contiguous_ids(self, seed):
        rng = np.random.default_rng(seed)
        known = np.array([42, 3, 17, 8, 1000, 5])
        # Few labeled nodes over many clusters: tie-heavy counts.
        class_labels = rng.choice(known, size=40)
        cluster_labels = rng.integers(0, 11, size=40)
        kwargs = {"num_clusters": 11, "known_classes": known,
                  "total_num_classes": 2000 if seed % 2 else None}
        alignment = align_clusters_to_classes(cluster_labels, class_labels, **kwargs)
        reference = reference_align(cluster_labels, class_labels, **kwargs)
        assert alignment.mapping == reference.mapping
        assert np.array_equal(alignment.matched_clusters, reference.matched_clusters)
        assert np.array_equal(alignment.unmatched_clusters, reference.unmatched_clusters)
        every_node = rng.integers(0, 11, size=500)
        assert np.array_equal(alignment.apply(every_node), reference_apply(reference, every_node))

    def test_repeated_known_class(self):
        known = np.array([4, 9, 4])
        alignment = align_clusters_to_classes(
            np.array([0, 1, 2, 2]), np.array([4, 9, 4, 4]), num_clusters=3,
            known_classes=known)
        reference = reference_align(
            np.array([0, 1, 2, 2]), np.array([4, 9, 4, 4]), num_clusters=3,
            known_classes=known)
        assert alignment.mapping == reference.mapping

    def test_unknown_class_label_raises(self):
        with pytest.raises(KeyError):
            align_clusters_to_classes(np.array([0, 1]), np.array([3, 6]), num_clusters=2,
                                      known_classes=np.array([3, 4]))

    def test_unmapped_cluster_raises(self):
        alignment = ClusterAlignment(mapping={0: 5, 2: 7},
                                     matched_clusters=np.array([0, 2]),
                                     unmatched_clusters=np.array([], dtype=np.int64))
        assert alignment.apply(np.array([2, 0, 2])).tolist() == [7, 5, 7]
        for cluster in (1, -1, 3):
            with pytest.raises(KeyError):
                alignment.apply(np.array([0, cluster]))

    @pytest.mark.parametrize("seed", range(4))
    def test_accuracy_with_unmatched_prediction_ids(self, seed):
        rng = np.random.default_rng(seed)
        targets = rng.choice(np.array([2, 9, 11, 40, 41]), size=300)
        # More predicted ids than target ids, negative and gapped: some
        # predicted ids stay unmatched and remap to -1.
        predictions = rng.choice(np.array([-1, 0, 5, 7, 100, 101, 3000]), size=300)
        assert (hungarian_accuracy_mapping(predictions, targets)
                == reference_accuracy_mapping(predictions, targets))
        remapped = remap_predictions(predictions, targets)
        assert np.array_equal(remapped, reference_remap(predictions, targets))
        assert (remapped == -1).any()
        assert clustering_accuracy(predictions, targets) == float(
            (reference_remap(predictions, targets) == targets).mean())
        accuracy = open_world_accuracy(predictions, targets, seen_classes=np.array([2, 40]))
        assert (accuracy.overall, accuracy.seen, accuracy.novel) == \
            reference_open_world_accuracy(predictions, targets, np.array([2, 40]))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            hungarian_accuracy_mapping(np.array([0, 1, 2]), np.array([0, 1]))
