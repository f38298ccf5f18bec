"""Clustering-engine integration: refresh/predict parity with the legacy path.

The acceptance bar for the engine refactor: with the default ``exact``
strategy, every pseudo-label refresh and every two-stage prediction is
bit-identical to a direct ``KMeans(k, seed=seed)`` fit made in the test —
across multiple refreshes, for OpenIMA and the clustering baselines.  The
approximate strategies must stay within NMI >= 0.95 of the exact assignment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.opencon import OpenConTrainer
from repro.baselines.openwgl import OpenWGLTrainer
from repro.baselines.orca import ORCATrainer
from repro.clustering import normalized_mutual_information
from repro.clustering.kmeans import KMeans
from repro.core.callbacks import Callback
from repro.core.config import ClusteringConfig, OpenIMAConfig, fast_config
from repro.core.openima import OpenIMATrainer
from repro.core.pseudo_labels import generate_pseudo_labels


def openima_config(max_epochs=4, clustering=None, **overrides):
    trainer = fast_config(max_epochs=max_epochs, seed=0, batch_size=128,
                          clustering=clustering)
    return OpenIMAConfig(trainer=trainer, pseudo_label_warmup=0,
                         pseudo_label_refresh=1, **overrides)


class RefreshParityCallback(Callback):
    """After every refresh, recompute the pseudo labels from a direct KMeans fit.

    ``on_epoch_start`` fires right after the trainer's own hook (where the
    refresh lives), while the encoder parameters — and therefore the cached
    embeddings — are unchanged.
    """

    def __init__(self):
        self.refreshes_checked = 0

    def on_epoch_start(self, trainer, epoch):
        embeddings = trainer.node_embeddings()
        split = trainer.dataset.split
        num_clusters = trainer.label_space.num_total
        legacy = generate_pseudo_labels(
            embeddings,
            labeled_indices=split.train_nodes,
            labeled_internal_labels=trainer._train_internal,
            num_seen_classes=trainer.label_space.num_seen,
            num_clusters=num_clusters,
            rho=trainer.openima_config.rho,
            cluster_result=KMeans(num_clusters, seed=trainer.config.seed).fit(embeddings),
        )
        num_nodes = trainer.dataset.graph.num_nodes
        assert np.array_equal(trainer._pseudo_lookup,
                              legacy.label_lookup(num_nodes))
        assert np.array_equal(
            trainer.pseudo_labels.cluster_result.labels,
            legacy.cluster_result.labels,
        )
        self.refreshes_checked += 1


class TestExactRefreshParity:
    def test_openima_refresh_bit_identical_across_epochs(self, small_dataset):
        trainer = OpenIMATrainer(small_dataset, openima_config(max_epochs=4))
        spy = RefreshParityCallback()
        trainer.fit(callbacks=[spy])
        assert spy.refreshes_checked >= 3

    def test_openima_refresh_records_engine_outcome(self, small_dataset):
        trainer = OpenIMATrainer(small_dataset, openima_config(max_epochs=1))
        trainer.fit()
        outcome = trainer.pseudo_labels.clustering
        assert outcome is not None
        assert outcome.strategy == "exact"
        assert outcome.births == ()
        assert trainer.clustering_engine.refresh_count == 1

    def test_refresh_schedule_spaces_engine_refreshes(self, small_dataset):
        # pseudo_label_refresh alone spaces the refits: warm-up 1 and period
        # 2 refresh at epochs 1 and 3 of 5.
        config = OpenIMAConfig(trainer=fast_config(max_epochs=5, seed=0,
                                                   batch_size=128),
                               pseudo_label_warmup=1, pseudo_label_refresh=2)
        trainer = OpenIMATrainer(small_dataset, config)

        class RefreshCounts(Callback):
            def __init__(self):
                self.counts = []

            def on_epoch_start(self, trainer, epoch):
                self.counts.append(trainer.clustering_engine.refresh_count)

        spy = RefreshCounts()
        trainer.fit(callbacks=[spy])
        assert spy.counts == [0, 1, 1, 2, 2]

    @pytest.mark.parametrize("trainer_cls", [ORCATrainer, OpenWGLTrainer,
                                             OpenConTrainer])
    def test_predict_clustering_matches_legacy(self, small_dataset, trainer_cls):
        trainer = trainer_cls(small_dataset, fast_config(max_epochs=2, seed=0,
                                                         batch_size=128))
        trainer.fit()
        for _ in range(3):  # repeated predictions stay identical (stateless)
            result = trainer.predict()
            legacy = KMeans(trainer.label_space.num_total,
                            seed=trainer.config.seed).fit(trainer.node_embeddings())
            assert np.array_equal(result.cluster_result.labels, legacy.labels)
            assert np.array_equal(result.cluster_result.centers, legacy.centers)

    def test_openwgl_ood_clusters_match_legacy(self, small_dataset):
        trainer = OpenWGLTrainer(small_dataset, fast_config(max_epochs=2, seed=0,
                                                            batch_size=128))
        trainer.fit()
        embeddings = trainer.node_embeddings()
        num_novel = trainer.label_space.num_novel
        # The engine-backed OOD post-clustering must reproduce the direct
        # n_init=1 K-Means it replaced for any candidate subset.
        subset = embeddings[::3]
        engine_labels = trainer.clustering_engine.cluster(
            subset, num_novel, seed=trainer.config.seed, n_init=1).labels
        legacy_labels = KMeans(num_novel, seed=trainer.config.seed,
                               n_init=1).fit_predict(subset)
        assert np.array_equal(engine_labels, legacy_labels)


class TestApproximateStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy", ["minibatch", "online"])
    def test_refresh_nmi_against_exact(self, small_dataset, strategy):
        clustering = ClusteringConfig(strategy=strategy, sample_size=128,
                                      reassign_chunk_size=64)
        trainer = OpenIMATrainer(small_dataset,
                                 openima_config(max_epochs=2, clustering=clustering))
        trainer.fit()
        assert trainer.pseudo_labels.clustering.strategy == strategy
        embeddings = trainer.node_embeddings()
        exact = KMeans(trainer.label_space.num_total,
                       seed=trainer.config.seed).fit(embeddings)
        approx = trainer.predict().cluster_result
        assert normalized_mutual_information(approx.labels, exact.labels) >= 0.95

    def test_evaluation_does_not_perturb_refresh_state(self, small_dataset):
        # predict/evaluate go through the stateless path: a run with
        # mid-training evaluation must produce the same pseudo-label
        # trajectory as one without.
        clustering = ClusteringConfig(strategy="online", sample_size=128)
        plain = OpenIMATrainer(small_dataset,
                               openima_config(max_epochs=3, clustering=clustering))
        plain.fit()

        evaluated = OpenIMATrainer(small_dataset,
                                   openima_config(max_epochs=3, clustering=clustering))

        class EvalEveryEpoch(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                trainer.evaluate()

        evaluated.fit(callbacks=[EvalEveryEpoch()])
        assert np.array_equal(plain._pseudo_lookup, evaluated._pseudo_lookup)

    def test_configure_clustering_swaps_engine_and_config(self, small_dataset):
        trainer = OpenIMATrainer(small_dataset, openima_config(max_epochs=1))
        trainer.fit()
        new = ClusteringConfig(strategy="minibatch", sample_size=64)
        trainer.configure_clustering(new)
        assert trainer.config.clustering == new
        assert trainer.openima_config.trainer.clustering == new
        assert trainer.clustering_engine.config is new
        result = trainer.predict()
        assert result.predictions.shape[0] == small_dataset.graph.num_nodes
