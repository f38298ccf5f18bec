"""ClusteringEngine: strategy parity, warm start, tolerance, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusteringEngine, normalized_mutual_information
from repro.clustering.engine import MINI_BATCH_SIZE
from repro.clustering.kmeans import KMeans, MiniBatchKMeans
from repro.core.config import ClusteringConfig


def blobs(num_per_blob=150, num_blobs=5, dim=8, seed=0, spread=0.35):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(num_blobs, dim))
    return np.vstack([
        rng.normal(center, spread, size=(num_per_blob, dim)) for center in centers
    ])


@pytest.fixture(scope="module")
def data():
    return blobs()


class TestConfigValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="clustering strategy"):
            ClusteringConfig(strategy="agglomerative")

    @pytest.mark.parametrize("field,value", [
        ("sample_size", 0),
        ("reassign_chunk_size", 0),
        ("refresh_tolerance", -1),
    ])
    def test_invalid_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            ClusteringConfig(**{field: value})

    def test_round_trip(self):
        config = ClusteringConfig(strategy="online", sample_size=128,
                                  warm_start=True, refresh_tolerance=7, seed=3)
        assert ClusteringConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            ClusteringConfig.from_dict({"stratgy": "exact"})

    def test_tolerance_without_carried_state_rejected(self):
        # Without warm_start (or the online strategy) the tolerance could
        # never fire; reject the combination instead of ignoring it.
        with pytest.raises(ValueError, match="warm_start"):
            ClusteringConfig(refresh_tolerance=5)
        with pytest.raises(ValueError, match="warm_start"):
            ClusteringConfig(strategy="minibatch", refresh_tolerance=5)

    def test_tolerance_with_online_strategy_accepted(self):
        config = ClusteringConfig(strategy="online", refresh_tolerance=5)
        assert config.refresh_tolerance == 5


class TestExactStrategy:
    def test_refresh_bit_identical_to_legacy(self, data):
        legacy = KMeans(5, seed=0).fit(data)
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        for _ in range(3):  # every refresh matches, not just the first
            outcome = engine.refresh(data, 5)
            assert outcome.refitted
            assert np.array_equal(outcome.result.labels, legacy.labels)
            assert np.array_equal(outcome.result.centers, legacy.centers)
            assert outcome.result.inertia == legacy.inertia

    def test_cluster_matches_direct_kmeans(self, data):
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        direct = KMeans(4, seed=7, n_init=1).fit(data)
        result = engine.cluster(data, 4, seed=7, n_init=1)
        assert np.array_equal(result.labels, direct.labels)
        assert np.array_equal(result.centers, direct.centers)

    def test_cluster_mini_batch_override(self, data):
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        direct = MiniBatchKMeans(4, batch_size=MINI_BATCH_SIZE, seed=2).fit(data)
        result = engine.cluster(data, 4, seed=2, mini_batch=True)
        assert np.array_equal(result.labels, direct.labels)

    def test_dedicated_config_seed_overrides_trainer_seed(self, data):
        engine = ClusteringEngine(ClusteringConfig(seed=11), seed=0)
        legacy = KMeans(5, seed=11).fit(data)
        outcome = engine.refresh(data, 5)
        assert np.array_equal(outcome.result.labels, legacy.labels)


@pytest.mark.parametrize("strategy", ["minibatch", "online"])
class TestApproximateStrategies:
    def test_nmi_against_exact(self, data, strategy):
        exact = KMeans(5, seed=0).fit(data)
        engine = ClusteringEngine(
            ClusteringConfig(strategy=strategy, sample_size=256,
                             reassign_chunk_size=128),
            seed=0,
        )
        outcome = engine.refresh(data, 5)
        assert outcome.strategy == strategy
        assert normalized_mutual_information(
            outcome.result.labels, exact.labels) >= 0.95

    def test_labels_cover_every_sample(self, data, strategy):
        engine = ClusteringEngine(ClusteringConfig(strategy=strategy,
                                                   sample_size=200), seed=0)
        result = engine.refresh(data, 5).result
        assert result.labels.shape == (data.shape[0],)
        assert result.centers.shape == (5, data.shape[1])
        assert result.inertia >= 0.0

    def test_cluster_is_stateless_and_deterministic(self, data, strategy):
        engine = ClusteringEngine(ClusteringConfig(strategy=strategy,
                                                   sample_size=200), seed=0)
        first = engine.cluster(data, 5, seed=3)
        engine.refresh(data, 5)  # stateful call in between must not matter
        second = engine.cluster(data, 5, seed=3)
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first.centers, second.centers)

    def test_too_few_samples_raise(self, data, strategy):
        engine = ClusteringEngine(ClusteringConfig(strategy=strategy), seed=0)
        with pytest.raises(ValueError, match="cannot form"):
            engine.refresh(data[:3], 5)


class TestWarmStart:
    def test_exact_warm_start_reuses_centers(self, data):
        engine = ClusteringEngine(ClusteringConfig(warm_start=True), seed=0)
        first = engine.refresh(data, 5)
        second = engine.refresh(data, 5)
        # Warm-started Lloyd from converged centers terminates immediately
        # with the same clustering.
        assert second.result.n_iter <= 2
        assert np.array_equal(first.result.labels, second.result.labels)

    def test_online_carries_counts_across_refreshes(self, data):
        engine = ClusteringEngine(ClusteringConfig(strategy="online",
                                                   sample_size=200), seed=0)
        assert engine.carries_state  # online always carries streaming state
        first = engine.refresh(data, 5)
        second = engine.refresh(data, 5)
        assert engine.refit_count == 2
        assert normalized_mutual_information(
            first.result.labels, second.result.labels) >= 0.95

    def test_carried_centers_view_is_read_only(self, data):
        engine = ClusteringEngine(ClusteringConfig(warm_start=True), seed=0)
        assert engine.centers is None
        engine.refresh(data, 5)
        view = engine.centers
        with pytest.raises(ValueError):
            view[0, 0] = 99.0

    def test_cluster_count_change_discards_state(self, data):
        engine = ClusteringEngine(ClusteringConfig(warm_start=True,
                                                   refresh_tolerance=10**9), seed=0)
        engine.refresh(data, 5, parameter_version=0)
        outcome = engine.refresh(data, 4, parameter_version=1)
        # k changed: the carried 5-center state cannot satisfy the request.
        assert outcome.refitted
        assert outcome.result.centers.shape[0] == 4


class TestRefreshTolerance:
    def test_small_drift_reassigns_only(self, data):
        engine = ClusteringEngine(
            ClusteringConfig(warm_start=True, refresh_tolerance=10), seed=0)
        first = engine.refresh(data, 5, parameter_version=100)
        assert first.refitted
        second = engine.refresh(data, 5, parameter_version=106)
        assert not second.refitted
        assert second.version_delta == 6
        assert np.array_equal(second.result.centers, first.result.centers)
        assert engine.refit_count == 1 and engine.refresh_count == 2

    def test_drift_accumulates_against_last_fit(self, data):
        engine = ClusteringEngine(
            ClusteringConfig(warm_start=True, refresh_tolerance=10), seed=0)
        engine.refresh(data, 5, parameter_version=100)
        assert not engine.refresh(data, 5, parameter_version=106).refitted
        # 12 > tolerance relative to the last *fit* (100), not the last call.
        third = engine.refresh(data, 5, parameter_version=112)
        assert third.refitted

    def test_zero_tolerance_always_refits(self, data):
        engine = ClusteringEngine(ClusteringConfig(warm_start=True), seed=0)
        engine.refresh(data, 5, parameter_version=100)
        assert engine.refresh(data, 5, parameter_version=100).refitted

    def test_without_version_always_refits(self, data):
        engine = ClusteringEngine(
            ClusteringConfig(warm_start=True, refresh_tolerance=10**9), seed=0)
        engine.refresh(data, 5)
        assert engine.refresh(data, 5).refitted


class TestPersistence:
    @pytest.mark.parametrize("strategy", ["exact", "minibatch", "online"])
    def test_state_round_trip_continues_identically(self, data, strategy):
        config = ClusteringConfig(strategy=strategy, sample_size=200,
                                  warm_start=True, refresh_tolerance=5)
        source = ClusteringEngine(config, seed=0)
        source.refresh(data, 5, parameter_version=50)

        meta, arrays = source.state_dict(parameter_version=50)
        # Simulate the manifest JSON round trip.
        import json

        meta = json.loads(json.dumps(meta))
        restored = ClusteringEngine(config, seed=0)
        # Version counters restart after a load; 7 stands in for the
        # arbitrary post-load counter the relative encoding must absorb.
        restored.load_state_dict(meta, arrays, parameter_version=7)

        continued = source.refresh(data, 5, parameter_version=53)
        resumed = restored.refresh(data, 5, parameter_version=10)
        assert resumed.refitted == continued.refitted
        assert np.array_equal(resumed.result.labels, continued.result.labels)
        assert np.array_equal(resumed.result.centers, continued.result.centers)

    def test_fresh_engine_state_is_empty(self):
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        meta, arrays = engine.state_dict()
        assert arrays == {}
        assert meta["num_clusters"] is None
        assert meta["version_behind"] is None
