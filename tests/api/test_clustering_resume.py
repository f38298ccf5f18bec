"""Checkpoint/resume parity for the clustering engine's carried state.

With ``warm_start=True`` (or the ``online`` strategy) the pseudo-label
refresh depends on centroids, running counts, and the engine RNG carried
across epochs — all of which must survive a save/load cycle for a resumed
run to match an uninterrupted one bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.api.checkpoint import MANIFEST_FILE, WEIGHTS_FILE
from repro.core.config import ClusteringConfig, OpenIMAConfig, fast_config

TINY = {"scale": 0.15, "seed": 0}


def warm_classifier(clustering: ClusteringConfig, max_epochs=4) -> OpenWorldClassifier:
    trainer = fast_config(max_epochs=max_epochs, seed=0, clustering=clustering)
    config = OpenIMAConfig(trainer=trainer, pseudo_label_warmup=0,
                           pseudo_label_refresh=1)
    return OpenWorldClassifier("openima", config=config)


CLUSTERING_VARIANTS = {
    "exact-warm": ClusteringConfig(warm_start=True),
    "minibatch-warm": ClusteringConfig(strategy="minibatch", sample_size=128,
                                       warm_start=True),
    "online": ClusteringConfig(strategy="online", sample_size=128),
    "warm-tolerance": ClusteringConfig(warm_start=True, refresh_tolerance=10**9),
}


class TestWarmStartResumeParity:
    @pytest.mark.parametrize("variant", sorted(CLUSTERING_VARIANTS))
    def test_resume_matches_uninterrupted(self, variant, tmp_path):
        clustering = CLUSTERING_VARIANTS[variant]
        uninterrupted = warm_classifier(clustering).fit("citeseer", **TINY)

        interrupted = warm_classifier(clustering)
        interrupted.fit("citeseer", max_epochs=2, **TINY)
        interrupted.save(tmp_path / "mid")
        resumed = OpenWorldClassifier.load(tmp_path / "mid")
        resumed.fit()

        assert resumed.epochs_trained == 4
        assert resumed.history.losses == uninterrupted.history.losses
        assert np.array_equal(resumed.predict(), uninterrupted.predict())
        assert np.array_equal(resumed.trainer_._pseudo_lookup,
                              uninterrupted.trainer_._pseudo_lookup)

    def test_tolerance_short_circuit_survives_resume(self, tmp_path):
        # The resumed engine must keep treating the mid-training fit as its
        # reference point: with an effectively infinite tolerance it never
        # re-fits after the first epoch, before or after the resume.
        clustering = CLUSTERING_VARIANTS["warm-tolerance"]
        interrupted = warm_classifier(clustering)
        interrupted.fit("citeseer", max_epochs=2, **TINY)
        assert interrupted.clustering_engine.refit_count == 1
        interrupted.save(tmp_path / "mid")

        resumed = OpenWorldClassifier.load(tmp_path / "mid")
        resumed.fit()
        assert resumed.clustering_engine.refit_count == 1
        assert resumed.clustering_engine.refresh_count == 4

    def test_carried_centroids_are_persisted(self, tmp_path):
        clustering = CLUSTERING_VARIANTS["exact-warm"]
        clf = warm_classifier(clustering, max_epochs=2).fit("citeseer", **TINY)
        clf.save(tmp_path / "ckpt")

        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_FILE).read_text())
        assert "clustering_state" in manifest
        assert manifest["clustering_state"]["refresh_count"] == 2
        with np.load(tmp_path / "ckpt" / WEIGHTS_FILE) as bundle:
            assert "clustering.centers" in bundle.files
            np.testing.assert_array_equal(
                bundle["clustering.centers"],
                clf.clustering_engine.centers,
            )

    def test_default_exact_checkpoint_has_no_arrays(self, tmp_path):
        clf = warm_classifier(ClusteringConfig(), max_epochs=1).fit(
            "citeseer", **TINY)
        clf.save(tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt" / WEIGHTS_FILE) as bundle:
            assert not any(name.startswith("clustering.")
                           for name in bundle.files)
