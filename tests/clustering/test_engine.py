"""ClusteringEngine: strategy parity, carried state, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import ClusteringEngine, normalized_mutual_information
from repro.clustering.engine import MINI_BATCH_SIZE
from repro.clustering.kmeans import KMeans, MiniBatchKMeans
from repro.core.config import ClusteringConfig
from repro.obs import REGISTRY


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
    ])
    def test_invalid_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            ClusteringConfig(**{field: value})

    def test_round_trip(self):
        config = ClusteringConfig(strategy="online", sample_size=128,
                                  birth_threshold=0.2, max_clusters=9)
        assert ClusteringConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            ClusteringConfig.from_dict({"stratgy": "exact"})


class TestExactStrategy:
    def test_refresh_bit_identical_to_legacy(self, data):
        legacy = KMeans(5, seed=0).fit(data)
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        for _ in range(3):  # every refresh matches, not just the first
            outcome = engine.refresh(data, 5)
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

    def test_trainer_seed_seeds_refresh(self, data):
        engine = ClusteringEngine(ClusteringConfig(), seed=11)
        legacy = KMeans(5, seed=11).fit(data)
        outcome = engine.refresh(data, 5)
        assert engine.base_seed == 11
        assert np.array_equal(outcome.result.labels, legacy.labels)

    def test_refresh_refits_drifted_embeddings(self, data):
        # Each refresh is a fresh fit: after the embeddings move, the
        # clustering follows them instead of reusing the last centroids.
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        engine.refresh(data, 5)
        drifted = blobs(seed=1)
        outcome = engine.refresh(drifted, 5)
        legacy = KMeans(5, seed=0).fit(drifted)
        assert np.array_equal(outcome.result.labels, legacy.labels)
        assert np.array_equal(outcome.result.centers, legacy.centers)

    def test_refresh_counter_counts_refreshes_only(self, data):
        counter = REGISTRY.get("repro_cluster_refreshes_total")
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        before = counter.value()
        engine.refresh(data, 5)
        engine.cluster(data, 5)  # the stateless inference path is no refresh
        engine.refresh(data, 5)
        assert counter.value() == before + 2
        assert engine.refresh_count == 2


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


class TestCarriedState:
    @pytest.mark.parametrize("strategy", ["exact", "minibatch"])
    def test_only_online_carries_state(self, data, strategy):
        engine = ClusteringEngine(ClusteringConfig(strategy=strategy,
                                                   sample_size=200), seed=0)
        assert not engine.carries_state
        engine.refresh(data, 5)
        assert engine.centers is None
        assert engine.state_dict()[1] == {}

    def test_online_carries_counts_across_refreshes(self, data):
        engine = ClusteringEngine(ClusteringConfig(strategy="online",
                                                   sample_size=200), seed=0)
        assert engine.carries_state  # online always carries streaming state
        first = engine.refresh(data, 5)
        second = engine.refresh(data, 5)
        assert engine.refresh_count == 2
        assert normalized_mutual_information(
            first.result.labels, second.result.labels) >= 0.95

    def test_carried_centers_view_is_read_only(self, data):
        engine = ClusteringEngine(ClusteringConfig(strategy="online",
                                                   sample_size=200), seed=0)
        assert engine.centers is None
        engine.refresh(data, 5)
        view = engine.centers
        with pytest.raises(ValueError):
            view[0, 0] = 99.0

    def test_cluster_count_change_discards_state(self, data):
        engine = ClusteringEngine(ClusteringConfig(strategy="online",
                                                   sample_size=200), seed=0)
        engine.refresh(data, 5)
        outcome = engine.refresh(data, 4)
        # k changed: the carried 5-center state cannot satisfy the request.
        assert outcome.result.centers.shape[0] == 4
        assert engine.centers.shape[0] == 4


class TestPersistence:
    @pytest.mark.parametrize("strategy", ["exact", "minibatch", "online"])
    def test_state_round_trip_continues_identically(self, data, strategy):
        config = ClusteringConfig(strategy=strategy, sample_size=200)
        source = ClusteringEngine(config, seed=0)
        source.refresh(data, 5)

        meta, arrays = source.state_dict()
        # Simulate the manifest JSON round trip.
        import json

        meta = json.loads(json.dumps(meta))
        restored = ClusteringEngine(config, seed=0)
        restored.load_state_dict(meta, arrays)

        continued = source.refresh(data, 5)
        resumed = restored.refresh(data, 5)
        assert restored.refresh_count == source.refresh_count == 2
        assert np.array_equal(resumed.result.labels, continued.result.labels)
        assert np.array_equal(resumed.result.centers, continued.result.centers)

    def test_fresh_engine_state_is_empty(self):
        engine = ClusteringEngine(ClusteringConfig(), seed=0)
        meta, arrays = engine.state_dict()
        assert arrays == {}
        assert meta["num_clusters"] is None
        assert set(meta) == {"rng", "refresh_count", "birth_count", "num_clusters"}
