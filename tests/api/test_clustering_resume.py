"""Checkpoint/resume parity for the clustering engine's carried state.

The pseudo-label refresh depends on the engine RNG (``minibatch`` and
``online`` sampling) and, with the ``online`` strategy, on centroids and
running counts carried across epochs — all of which must survive a
save/load cycle for a resumed run to match an uninterrupted one bit for
bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.api.checkpoint import MANIFEST_FILE, WEIGHTS_FILE
from repro.core.config import ClusteringConfig, OpenIMAConfig, fast_config

TINY = {"scale": 0.15, "seed": 0}


def refreshing_classifier(clustering: ClusteringConfig, max_epochs=4) -> OpenWorldClassifier:
    trainer = fast_config(max_epochs=max_epochs, seed=0, clustering=clustering)
    config = OpenIMAConfig(trainer=trainer, pseudo_label_warmup=0,
                           pseudo_label_refresh=1)
    return OpenWorldClassifier("openima", config=config)


CLUSTERING_VARIANTS = {
    "exact": ClusteringConfig(),
    "minibatch": ClusteringConfig(strategy="minibatch", sample_size=128),
    "online": ClusteringConfig(strategy="online", sample_size=128),
}


class TestResumeParity:
    @pytest.mark.parametrize("variant", sorted(CLUSTERING_VARIANTS))
    def test_resume_matches_uninterrupted(self, variant, tmp_path):
        clustering = CLUSTERING_VARIANTS[variant]
        uninterrupted = refreshing_classifier(clustering).fit("citeseer", **TINY)

        interrupted = refreshing_classifier(clustering)
        interrupted.fit("citeseer", max_epochs=2, **TINY)
        interrupted.save(tmp_path / "mid")
        resumed = OpenWorldClassifier.load(tmp_path / "mid")
        resumed.fit()

        assert resumed.epochs_trained == 4
        assert resumed.history.losses == uninterrupted.history.losses
        assert np.array_equal(resumed.predict(), uninterrupted.predict())
        assert np.array_equal(resumed.trainer_._pseudo_lookup,
                              uninterrupted.trainer_._pseudo_lookup)

    def test_carried_centroids_are_persisted(self, tmp_path):
        clustering = CLUSTERING_VARIANTS["online"]
        clf = refreshing_classifier(clustering, max_epochs=2).fit("citeseer", **TINY)
        clf.save(tmp_path / "ckpt")

        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_FILE).read_text())
        assert "clustering_state" in manifest
        assert manifest["clustering_state"]["refresh_count"] == 2
        with np.load(tmp_path / "ckpt" / WEIGHTS_FILE) as bundle:
            assert {"clustering.centers", "clustering.counts"} <= set(bundle.files)
            np.testing.assert_array_equal(
                bundle["clustering.centers"],
                clf.clustering_engine.centers,
            )

    def test_default_exact_checkpoint_has_no_arrays(self, tmp_path):
        clf = refreshing_classifier(ClusteringConfig(), max_epochs=1).fit(
            "citeseer", **TINY)
        clf.save(tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt" / WEIGHTS_FILE) as bundle:
            assert not any(name.startswith("clustering.")
                           for name in bundle.files)
