"""Tests for the C+1 open-world node classification baselines (OODGAT†, OpenWGL†)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.oodgat import OODGATTrainer
from repro.baselines.openwgl import OpenWGLTrainer
from repro.core.config import fast_config


@pytest.fixture()
def config():
    return fast_config(max_epochs=2, encoder_kind="gcn", batch_size=160)


class TestOODGAT:
    def test_trains_and_predicts(self, small_dataset, config):
        trainer = OODGATTrainer(small_dataset, config)
        history = trainer.fit()
        assert np.isfinite(history.losses).all()
        result = trainer.predict()
        assert result.predictions.shape[0] == small_dataset.graph.num_nodes
        accuracy = trainer.evaluate()
        assert 0.0 <= accuracy.overall <= 1.0

    def test_ood_nodes_receive_novel_ids(self, small_dataset, config):
        trainer = OODGATTrainer(small_dataset, config, ood_quantile=0.5)
        trainer.fit()
        result = trainer.predict()
        test_predictions = result.predictions[small_dataset.split.test_nodes]
        seen = set(small_dataset.split.seen_classes.tolist())
        novel_fraction = np.mean([p not in seen for p in test_predictions])
        # Roughly half the unlabeled nodes are flagged as OOD.
        assert 0.2 < novel_fraction < 0.8

    def test_train_nodes_never_flagged_ood(self, small_dataset, config):
        trainer = OODGATTrainer(small_dataset, config)
        trainer.fit()
        result = trainer.predict()
        train_predictions = result.predictions[small_dataset.split.train_nodes]
        seen = set(small_dataset.split.seen_classes.tolist())
        assert all(p in seen for p in train_predictions)

    def test_unlabeled_only_batch_is_handled(self, small_dataset, config):
        trainer = OODGATTrainer(small_dataset, config)
        batch = small_dataset.split.test_nodes[:10]
        view = trainer.encoder(small_dataset.graph).gather_rows(batch)
        loss = trainer.compute_loss(view, view, batch)
        assert np.isfinite(loss.item())


class TestOpenWGL:
    def test_trains_and_predicts(self, small_dataset, config):
        trainer = OpenWGLTrainer(small_dataset, config, num_uncertainty_samples=2)
        history = trainer.fit()
        assert np.isfinite(history.losses).all()
        result = trainer.predict()
        assert result.predictions.shape[0] == small_dataset.graph.num_nodes

    def test_mean_confidence_in_unit_interval(self, small_dataset, config):
        trainer = OpenWGLTrainer(small_dataset, config, num_uncertainty_samples=2)
        trainer.fit()
        confidence = trainer._mean_confidence(2)
        assert confidence.shape[0] == small_dataset.graph.num_nodes
        assert (confidence > 0).all() and (confidence <= 1.0).all()

    def test_predict_is_a_function_of_the_model(self, small_dataset, config):
        trainer = OpenWGLTrainer(small_dataset, config, num_uncertainty_samples=2)
        trainer.fit()
        first = trainer.predict().predictions
        np.testing.assert_array_equal(trainer.predict().predictions, first)

    def test_evaluation_during_training_leaves_the_weights(self, small_dataset):
        weights = []
        for eval_every in (0, 1):
            trainer = OpenWGLTrainer(
                small_dataset,
                fast_config(max_epochs=3, encoder_kind="gcn", batch_size=160,
                            eval_every=eval_every),
                num_uncertainty_samples=2)
            trainer.fit()
            weights.append([p.data.copy() for p in trainer.encoder.parameters()])
        for quiet, evaluated in zip(*weights, strict=True):
            np.testing.assert_array_equal(evaluated, quiet)

    def test_rejection_quantile_controls_ood_rate(self, small_dataset, config):
        conservative = OpenWGLTrainer(small_dataset, config, rejection_quantile=0.2,
                                      num_uncertainty_samples=2)
        aggressive = OpenWGLTrainer(small_dataset, config, rejection_quantile=0.8,
                                    num_uncertainty_samples=2)
        seen = set(small_dataset.split.seen_classes.tolist())
        rates = []
        for trainer in (conservative, aggressive):
            trainer.fit()
            predictions = trainer.predict().predictions[small_dataset.split.test_nodes]
            rates.append(np.mean([p not in seen for p in predictions]))
        assert rates[1] > rates[0]
