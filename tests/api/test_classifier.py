"""OpenWorldClassifier facade: fit/predict/evaluate/embed, save/load, resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    NotFittedError,
    OpenWorldClassifier,
)
from repro.core.config import OpenIMAConfig, fast_config

TINY = {"scale": 0.15, "seed": 0}


def make_classifier(method="openima", max_epochs=2, **kwargs):
    return OpenWorldClassifier(
        method, config=fast_config(max_epochs=max_epochs, seed=0), **kwargs
    )


class TestEstimatorSurface:
    def test_fit_predict_evaluate_embed(self):
        clf = make_classifier().fit("citeseer", **TINY)
        num_nodes = clf.dataset_.graph.num_nodes
        predictions = clf.predict()
        assert predictions.shape == (num_nodes,)
        accuracy = clf.evaluate()
        assert 0.0 <= accuracy.overall <= 1.0
        embeddings = clf.embed()
        assert embeddings.shape[0] == num_nodes
        assert clf.epochs_trained == 2
        assert len(clf.history.losses) == 2

    def test_unfitted_raises(self):
        clf = make_classifier()
        for attr in ("predict", "evaluate", "embed"):
            with pytest.raises(NotFittedError):
                getattr(clf, attr)()
        with pytest.raises(NotFittedError):
            clf.save("/tmp/nowhere")

    def test_dict_config_and_openima_wrapping(self):
        clf = OpenWorldClassifier(
            "openima",
            config={"trainer": fast_config(max_epochs=1).to_dict(), "eta": 2.0},
        )
        assert isinstance(clf.config, OpenIMAConfig)
        assert clf.config.eta == 2.0

    def test_dataset_object_accepted(self, small_dataset):
        clf = make_classifier(max_epochs=1).fit(small_dataset)
        assert clf.dataset_ is small_dataset

    def test_refit_with_new_dataset_rejected(self, small_dataset):
        clf = make_classifier(max_epochs=1).fit(small_dataset)
        with pytest.raises(ValueError, match="continues"):
            clf.fit(small_dataset)

    def test_method_params_forwarded(self):
        clf = OpenWorldClassifier("orca", config=fast_config(max_epochs=1),
                                  method_params={"margin_scale": 0.25})
        clf.fit("citeseer", **TINY)
        assert clf.trainer_.margin_scale == 0.25


class TestSaveLoadRoundTrip:
    def test_predictions_bitwise_identical(self, tmp_path):
        clf = make_classifier().fit("citeseer", **TINY)
        clf.save(tmp_path / "ckpt")
        restored = OpenWorldClassifier.load(tmp_path / "ckpt")
        assert np.array_equal(restored.predict(), clf.predict())
        assert np.array_equal(restored.embed(), clf.embed())
        assert restored.epochs_trained == clf.epochs_trained
        assert restored.history.losses == clf.history.losses
        assert restored.config == clf.config

    def test_manifest_contents(self, tmp_path):
        clf = make_classifier().fit("citeseer", **TINY)
        clf.save(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert manifest["method"] == "openima"
        assert manifest["config_class"] == "OpenIMAConfig"
        assert manifest["dataset"]["loader_args"]["name"] == "citeseer"
        assert manifest["epochs_trained"] == 2
        assert "rng_state" in manifest

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_future_format_version_rejected(self, tmp_path, offset):
        # Only the current version loads: older manifests carry sections
        # (e.g. trainer.parallel) this build no longer reads.
        clf = make_classifier(max_epochs=1).fit("citeseer", **TINY)
        clf.save(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = CHECKPOINT_FORMAT_VERSION + offset
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version.*[Rr]etrain"):
            OpenWorldClassifier.load(tmp_path / "ckpt")

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            OpenWorldClassifier.load(tmp_path / "nothing-here")

    def test_external_dataset_requires_explicit_dataset(self, tmp_path, small_dataset):
        clf = make_classifier(max_epochs=1).fit(small_dataset)
        clf.save(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="external dataset"):
            OpenWorldClassifier.load(tmp_path / "ckpt")
        restored = OpenWorldClassifier.load(tmp_path / "ckpt", dataset=small_dataset)
        assert np.array_equal(restored.predict(), clf.predict())

    @pytest.mark.parametrize("method", ["orca", "opencon", "infonce"])
    def test_baseline_round_trip(self, method, tmp_path):
        clf = make_classifier(method).fit("citeseer", **TINY)
        clf.save(tmp_path / method)
        restored = OpenWorldClassifier.load(tmp_path / method)
        assert np.array_equal(restored.predict(), clf.predict())


class TestResumeParity:
    """A run interrupted by save/load must match an uninterrupted run exactly."""

    @pytest.mark.parametrize("method", ["openima", "opencon"])
    def test_resume_matches_uninterrupted(self, method, tmp_path):
        uninterrupted = make_classifier(method, max_epochs=4).fit("citeseer", **TINY)

        interrupted = make_classifier(method, max_epochs=4)
        interrupted.fit("citeseer", max_epochs=2, **TINY)
        interrupted.save(tmp_path / "mid")
        resumed = OpenWorldClassifier.load(tmp_path / "mid")
        assert resumed.epochs_trained == 2
        resumed.fit()

        assert resumed.epochs_trained == 4
        assert resumed.history.losses == uninterrupted.history.losses
        assert np.array_equal(resumed.predict(), uninterrupted.predict())
        state_a = uninterrupted.trainer_.encoder.state_dict()
        state_b = resumed.trainer_.encoder.state_dict()
        assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)

    def test_resume_metrics_match(self, tmp_path):
        uninterrupted = make_classifier(max_epochs=3).fit("citeseer", **TINY)

        interrupted = make_classifier(max_epochs=3)
        interrupted.fit("citeseer", max_epochs=1, **TINY)
        interrupted.save(tmp_path / "mid")
        resumed = OpenWorldClassifier.load(tmp_path / "mid")
        resumed.fit()

        assert resumed.evaluate().as_dict() == uninterrupted.evaluate().as_dict()
