"""Neighborhood-sampled training: khop/full parity, determinism, resume."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.baselines.two_stage import InfoNCETrainer
from repro.core.config import OpenIMAConfig, SamplingConfig, fast_config
from repro.core.openima import OpenIMATrainer


def sampled_config(mode, max_epochs=3, batch_size=48, dropout=0.0, seed=0,
                   encoder_kind="gcn", backend="sparse", fanouts=None,
                   sampling_seed=None):
    sampling = SamplingConfig(mode=mode, fanouts=fanouts, seed=sampling_seed)
    config = fast_config(max_epochs=max_epochs, seed=seed,
                         encoder_kind=encoder_kind, batch_size=batch_size,
                         backend=backend, sampling=sampling)
    return config.with_updates(encoder=config.encoder.with_updates(dropout=dropout))


class TestKhopFullParity:
    """With dropout disabled, khop mode is bit-compatible with full mode."""

    @pytest.mark.parametrize("encoder_kind", ["gcn", "gat"])
    def test_losses_match_to_1e8(self, small_dataset, encoder_kind):
        full = InfoNCETrainer(small_dataset, sampled_config("full", encoder_kind=encoder_kind))
        khop = InfoNCETrainer(small_dataset, sampled_config("khop", encoder_kind=encoder_kind))
        history_full = full.fit()
        history_khop = khop.fit()
        np.testing.assert_allclose(history_khop.losses, history_full.losses,
                                   atol=1e-8, rtol=0)
        np.testing.assert_allclose(khop.node_embeddings(), full.node_embeddings(),
                                   atol=1e-8, rtol=0)

    def test_losses_match_with_dense_backend(self, small_dataset):
        full = InfoNCETrainer(small_dataset, sampled_config("full", backend="dense"))
        khop = InfoNCETrainer(small_dataset, sampled_config("khop", backend="dense"))
        np.testing.assert_allclose(khop.fit().losses, full.fit().losses,
                                   atol=1e-8, rtol=0)

    def test_openima_losses_match(self, small_dataset):
        def trainer(mode):
            return OpenIMATrainer(
                small_dataset,
                OpenIMAConfig(trainer=sampled_config(mode, max_epochs=2)),
            )

        np.testing.assert_allclose(trainer("khop").fit().losses,
                                   trainer("full").fit().losses,
                                   atol=1e-8, rtol=0)

    def test_khop_rejects_num_hops_below_encoder_depth(self, small_dataset):
        config = fast_config(sampling=SamplingConfig(mode="khop", num_hops=1))
        with pytest.raises(ValueError, match="message-passing layers"):
            InfoNCETrainer(small_dataset, config)
        # "sampled" mode is approximate by contract, so a shallow expansion
        # is allowed there.
        InfoNCETrainer(small_dataset, fast_config(
            sampling=SamplingConfig(mode="sampled", num_hops=1)))

    def test_khop_with_dropout_still_trains(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset, sampled_config("khop", dropout=0.3))
        history = trainer.fit()
        assert len(history.losses) == 3
        assert all(np.isfinite(history.losses))


class TestSampledMode:
    def test_deterministic_under_trainer_seed(self, small_dataset):
        runs = [
            InfoNCETrainer(small_dataset, sampled_config("sampled", fanouts=[4, 4])).fit().losses
            for _ in range(2)
        ]
        np.testing.assert_allclose(runs[0], runs[1], atol=0, rtol=0)

    def test_deterministic_under_dedicated_seed(self, small_dataset):
        runs = [
            InfoNCETrainer(
                small_dataset,
                sampled_config("sampled", fanouts=[4, 4], sampling_seed=123),
            ).fit().losses
            for _ in range(2)
        ]
        np.testing.assert_allclose(runs[0], runs[1], atol=0, rtol=0)

    def test_default_fanouts_filled_in(self):
        config = SamplingConfig(mode="sampled")
        assert config.fanouts == [10, 10]

    def test_trains_to_finite_losses(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset,
                                 sampled_config("sampled", dropout=0.3, fanouts=[3, 3]))
        assert all(np.isfinite(trainer.fit().losses))


class TestRngStateFormats:
    def test_state_round_trip(self, small_dataset):
        config = sampled_config("sampled", sampling_seed=7, fanouts=[3, 3])
        trainer = InfoNCETrainer(small_dataset, config)
        trainer.fit()  # advance both generators past their seeded state
        state = trainer.rng_state()
        assert "trainer" in state and "sampling" in state
        other = InfoNCETrainer(small_dataset, config)
        assert other.rng_state() != state
        other.set_rng_state(state)
        assert other.rng_state() == state


class TestCheckpointResumeParity:
    def test_khop_resume_matches_uninterrupted(self, tmp_path):
        config = sampled_config("khop", max_epochs=4, dropout=0.3, batch_size=96)
        dataset_options = {"scale": 0.15, "seed": 0}

        uninterrupted = OpenWorldClassifier("infonce", config=config)
        uninterrupted.fit("citeseer", **dataset_options)

        resumed = OpenWorldClassifier("infonce", config=config)
        resumed.fit("citeseer", max_epochs=2, **dataset_options)
        resumed.save(tmp_path / "ckpt")
        restored = OpenWorldClassifier.load(tmp_path / "ckpt")
        restored.fit(max_epochs=4)

        np.testing.assert_allclose(restored.history.losses,
                                   uninterrupted.history.losses, atol=0, rtol=0)
        np.testing.assert_array_equal(restored.predict(), uninterrupted.predict())

    def test_manifest_records_sampling_config(self, tmp_path):
        config = sampled_config("sampled", max_epochs=1, fanouts=[5, 5],
                                sampling_seed=3)
        classifier = OpenWorldClassifier("infonce", config=config)
        classifier.fit("citeseer", scale=0.15, seed=0)
        classifier.save(tmp_path / "ckpt")
        restored = OpenWorldClassifier.load(tmp_path / "ckpt")
        sampling = restored.trainer_.config.sampling
        assert sampling.mode == "sampled"
        assert sampling.fanouts == [5, 5]
        assert sampling.seed == 3
        assert restored.trainer_._sampler is not None
