"""Extra ablation — plain K-Means vs semi-supervised K-Means at inference.

Section V-A of the paper notes that the GCD-style semi-supervised K-Means
(which pins labeled samples of the same class to the same cluster) performs
*worse* than plain K-Means on the graph benchmarks, because a class with
diverse node representations gets forced into a single cluster and drags
other classes with it.  This benchmark trains one OpenIMA model and compares
the two clustering choices on the same embeddings.
"""

from __future__ import annotations

import pytest

#: Full paper-reproduction benchmarks train many models; opt in with -m slow.
pytestmark = pytest.mark.slow
import numpy as np
from conftest import BENCH_EXPERIMENT_SMALL, save_report

from repro.assignment.alignment import align_clusters_to_classes
from repro.clustering.semi_kmeans import SemiSupervisedKMeans
from repro.core.labels import LabelSpace
from repro.core.registry import build_method
from repro.datasets.synthetic import load_open_world_dataset
from repro.experiments.reporting import format_table, percent
from repro.metrics.accuracy import open_world_accuracy


def _run_comparison():
    experiment = BENCH_EXPERIMENT_SMALL
    dataset = load_open_world_dataset("coauthor-cs", seed=experiment.seeds[0],
                                      scale=experiment.scale)
    trainer = build_method("openima", dataset, experiment.trainer_config(experiment.seeds[0]))
    trainer.fit()
    embeddings = trainer.node_embeddings()
    split = dataset.split
    test_nodes = split.test_nodes

    # Plain K-Means (the paper's choice) via the standard two-stage path.
    plain = trainer.predict()
    plain_accuracy = open_world_accuracy(
        plain.predictions[test_nodes], dataset.labels[test_nodes], split.seen_classes
    )

    # Semi-supervised K-Means with labeled nodes pinned to their class cluster.
    label_space = LabelSpace(seen_classes=split.seen_classes, num_novel=split.num_novel)
    train_internal = label_space.to_internal(dataset.labels[split.train_nodes])
    semi = SemiSupervisedKMeans(label_space.num_total, seed=experiment.seeds[0]).fit(
        embeddings, split.train_nodes, train_internal,
        seen_classes=np.arange(label_space.num_seen),
    )
    alignment = align_clusters_to_classes(
        semi.labels[split.train_nodes], train_internal,
        num_clusters=label_space.num_total,
        known_classes=np.arange(label_space.num_seen),
        total_num_classes=label_space.num_seen,
    )
    semi_predictions = label_space.to_original(alignment.apply(semi.labels))
    semi_accuracy = open_world_accuracy(
        semi_predictions[test_nodes], dataset.labels[test_nodes], split.seen_classes
    )
    return plain_accuracy, semi_accuracy


def test_ablation_plain_vs_semi_supervised_kmeans(benchmark):
    plain, semi = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)

    report = format_table(
        ["Clustering", "All", "Seen", "Novel"],
        [
            ["Plain K-Means (paper)", percent(plain.overall), percent(plain.seen),
             percent(plain.novel)],
            ["Semi-supervised K-Means (GCD)", percent(semi.overall), percent(semi.seen),
             percent(semi.novel)],
        ],
        title="Ablation: clustering algorithm at inference (coauthor-cs profile)",
    )
    save_report("ablation_clustering", report)
    print("\n" + report)

    assert 0.0 <= plain.overall <= 1.0
    assert 0.0 <= semi.overall <= 1.0
    # The paper's observation: plain K-Means is at least as good as the
    # semi-supervised variant on the graph benchmarks (allow a small margin).
    assert plain.overall >= semi.overall - 0.10
