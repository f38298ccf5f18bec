"""Tests for the shared GraphTrainer infrastructure."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines.two_stage import InfoNCETrainer
from repro.core.config import (
    EncoderConfig,
    OpenIMAConfig,
    OptimizerConfig,
    SamplingConfig,
    TrainerConfig,
    fast_config,
)
from repro.core.inference import head_predict, two_stage_predict
from repro.core.openima import OpenIMATrainer
from repro.core.trainer import GraphTrainer, TrainingHistory


class TestTrainerConfig:
    def test_defaults_match_paper(self):
        config = TrainerConfig()
        assert config.encoder.kind == "gat"
        assert config.encoder.hidden_dim == 128
        assert config.encoder.num_heads == 8
        assert config.encoder.dropout == 0.5
        assert config.optimizer.weight_decay == 1e-4
        assert config.temperature == 0.7
        assert config.batch_size == 2048

    def test_with_updates(self):
        config = TrainerConfig().with_updates(max_epochs=3, seed=5)
        assert config.max_epochs == 3 and config.seed == 5
        assert TrainerConfig().max_epochs != 3 or TrainerConfig().seed != 5

    def test_fast_config(self):
        config = fast_config(max_epochs=4, encoder_kind="gcn")
        assert config.max_epochs == 4
        assert config.encoder.kind == "gcn"

    def test_nested_configs_immutable(self):
        config = TrainerConfig(encoder=EncoderConfig(kind="gcn"),
                               optimizer=OptimizerConfig(learning_rate=0.01))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_epochs = 10


class TestTrainingHistory:
    def test_record_and_final_loss(self):
        history = TrainingHistory()
        assert history.final_loss is None
        history.record_loss(2.0)
        history.record_loss(1.5)
        assert history.final_loss == 1.5
        assert history.losses == [2.0, 1.5]


class TestGraphTrainer:
    def test_base_compute_loss_not_implemented(self, small_dataset, tiny_trainer_config):
        trainer = GraphTrainer(small_dataset, tiny_trainer_config)
        with pytest.raises(NotImplementedError):
            trainer.compute_loss(None, None, np.array([0]))

    def test_label_space_built_from_split(self, small_dataset, tiny_trainer_config):
        trainer = GraphTrainer(small_dataset, tiny_trainer_config)
        assert trainer.label_space.num_seen == small_dataset.split.num_seen
        assert trainer.label_space.num_novel == small_dataset.split.num_novel
        assert trainer.head.num_classes == trainer.label_space.num_total

    def test_num_novel_override(self, small_dataset, tiny_trainer_config):
        trainer = GraphTrainer(small_dataset, tiny_trainer_config, num_novel_classes=5)
        assert trainer.label_space.num_novel == 5

    def test_batch_manual_labels(self, small_dataset, tiny_trainer_config):
        trainer = GraphTrainer(small_dataset, tiny_trainer_config)
        train_nodes = small_dataset.split.train_nodes
        labels = trainer.batch_manual_labels(train_nodes)
        assert (labels >= 0).all()
        test_labels = trainer.batch_manual_labels(small_dataset.split.test_nodes[:5])
        assert (test_labels == -1).all()

    def test_fit_records_losses_and_predict_covers_all_nodes(
        self, small_dataset, tiny_trainer_config
    ):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        history = trainer.fit()
        assert len(history.losses) == tiny_trainer_config.max_epochs
        assert all(np.isfinite(history.losses))
        result = trainer.predict()
        assert result.predictions.shape[0] == small_dataset.graph.num_nodes

    def test_training_reduces_contrastive_loss(self, small_dataset):
        config = fast_config(max_epochs=6, encoder_kind="gcn", batch_size=160)
        trainer = InfoNCETrainer(small_dataset, config)
        history = trainer.fit()
        assert history.losses[-1] < history.losses[0]

    def test_evaluate_returns_valid_accuracy(self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        trainer.fit()
        accuracy = trainer.evaluate()
        assert 0.0 <= accuracy.overall <= 1.0
        assert 0.0 <= accuracy.seen <= 1.0
        assert 0.0 <= accuracy.novel <= 1.0

    def test_validation_accuracy_in_range(self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        trainer.fit()
        assert 0.0 <= trainer.validation_accuracy() <= 1.0

    def test_eval_every_records_snapshots(self, small_dataset):
        config = fast_config(max_epochs=2, encoder_kind="gcn").with_updates(eval_every=1)
        trainer = InfoNCETrainer(small_dataset, config)
        history = trainer.fit()
        assert len(history.evaluations) == 2
        assert "all" in history.evaluations[0]

    def test_node_embeddings_shape(self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        embeddings = trainer.node_embeddings()
        assert embeddings.shape == (
            small_dataset.graph.num_nodes, tiny_trainer_config.encoder.out_dim
        )

    def test_head_logits_shape(self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        logits = trainer.head_logits()
        assert logits.shape == (
            small_dataset.graph.num_nodes, trainer.label_space.num_total
        )

    def test_with_clusters_keeps_predictions_and_attaches_two_stage_clusters(
            self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        embeddings = trainer.node_embeddings()
        predictions = np.arange(small_dataset.graph.num_nodes) % 3
        result = trainer.with_clusters(predictions, embeddings, seed=3)
        expected = two_stage_predict(embeddings, small_dataset, seed=3)
        assert result.predictions is predictions
        assert result.label_space is trainer.label_space
        assert np.array_equal(result.cluster_result.labels, expected.cluster_result.labels)
        assert np.array_equal(result.cluster_result.centers, expected.cluster_result.centers)
        assert result.alignment.mapping == expected.alignment.mapping

    def test_predict_with_head_takes_head_argmax_and_mini_batch_clusters(
            self, small_dataset, tiny_trainer_config):
        trainer = InfoNCETrainer(small_dataset, tiny_trainer_config)
        embeddings = trainer.node_embeddings()
        result = trainer.predict_with_head(seed=3, embeddings=embeddings, mini_batch=True)
        expected = head_predict(embeddings, trainer.head.linear.weight.data,
                                trainer.label_space)
        assert np.array_equal(result.predictions, expected)
        mini = two_stage_predict(embeddings, small_dataset, seed=3, mini_batch=True)
        exact = two_stage_predict(embeddings, small_dataset, seed=3)
        assert np.array_equal(result.cluster_result.centers, mini.cluster_result.centers)
        assert not np.array_equal(result.cluster_result.centers, exact.cluster_result.centers)

    def test_trailing_remainder_folded_into_last_batch(self, small_dataset):
        # 160 nodes with batch_size 53 leaves a remainder of 1, which used to
        # be dropped silently — that node got zero gradient signal per epoch.
        config = fast_config(max_epochs=1, encoder_kind="gcn", batch_size=53)
        trainer = GraphTrainer(small_dataset, config)
        batches = list(trainer._iterate_batches())
        sizes = [batch.shape[0] for batch in batches]
        assert sizes == [53, 53, 54]
        covered = np.concatenate(batches)
        assert covered.shape[0] == small_dataset.graph.num_nodes
        np.testing.assert_array_equal(np.sort(covered),
                                      np.arange(small_dataset.graph.num_nodes))

    def test_every_batch_has_at_least_two_nodes(self, small_dataset):
        for batch_size in (2, 3, 7, 53, 159, 160, 1000):
            config = fast_config(max_epochs=1, encoder_kind="gcn",
                                 batch_size=batch_size)
            trainer = GraphTrainer(small_dataset, config)
            batches = list(trainer._iterate_batches())
            assert all(batch.shape[0] >= 2 for batch in batches)
            assert sum(batch.shape[0] for batch in batches) == 160

    def test_deterministic_training_given_seed(self, small_dataset):
        config = fast_config(max_epochs=2, encoder_kind="gcn", batch_size=64)
        trainer_a = InfoNCETrainer(small_dataset, config)
        trainer_b = InfoNCETrainer(small_dataset, config)
        history_a = trainer_a.fit()
        history_b = trainer_b.fit()
        np.testing.assert_allclose(history_a.losses, history_b.losses)


class _GatheredFullForwardTrainer(OpenIMATrainer):
    """OpenIMA whose batch views run the encoder on every node, then gather."""

    def _batch_views(self, batch_nodes):
        if self._sampler is None:
            full_view1 = self.encoder(self.dataset.graph)
            full_view2 = self.encoder(self.dataset.graph)
            return (full_view1.gather_rows(batch_nodes),
                    full_view2.gather_rows(batch_nodes))
        batch = self._sampler.sample(batch_nodes)
        sub_view1 = self.encoder(batch.graph)
        sub_view2 = self.encoder(batch.graph)
        return (sub_view1.gather_rows(batch.seed_local),
                sub_view2.gather_rows(batch.seed_local))


@pytest.mark.parametrize("mode", ["full", "khop"])
@pytest.mark.parametrize("encoder", ["gcn", "gat"])
def test_batch_views_train_as_gathered_full_forward(small_dataset, encoder, mode):
    """Running the last layer for the batch only trains bitwise-identical weights."""

    def trained(trainer_cls):
        config = OpenIMAConfig(trainer=fast_config(
            max_epochs=2, seed=0, encoder_kind=encoder, batch_size=64,
            sampling=SamplingConfig(mode=mode)))
        trainer = trainer_cls(small_dataset, config)
        trainer.fit()
        digest = hashlib.sha256()
        for param in trainer.encoder.parameters() + trainer.head.parameters():
            digest.update(param.data.tobytes())
        return digest.hexdigest(), trainer.history.losses, trainer.rng_state()

    assert trained(OpenIMATrainer) == trained(_GatheredFullForwardTrainer)
