"""PredictionService: snapshot lifecycle, parity, and cache accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.serve import PredictionService


class TestSnapshotLifecycle:
    def test_snapshot_built_once_and_reused(self, served_classifier):
        service = PredictionService(served_classifier)
        first = service.snapshot()
        assert service.snapshot() is first
        service.query([0, 1, 2])
        assert service.snapshot_builds == 1
        assert service.classifier.inference_engine.forward_count == 1

    def test_repeated_queries_hit_embedding_cache(self, served_classifier):
        service = PredictionService(served_classifier)
        service.warm()
        cache = served_classifier.inference_engine.cache
        hits_before = cache.stats()["hits"]
        for _ in range(5):
            service.query_one(0)
        assert cache.stats()["hits"] >= hits_before + 5

    def test_parameter_bump_rebuilds_snapshot(self, served_classifier):
        service = PredictionService(served_classifier)
        first = service.snapshot()
        encoder = served_classifier.trainer_.encoder
        encoder.load_state_dict(encoder.state_dict())  # bumps the version
        second = service.snapshot()
        assert second is not first
        assert service.snapshot_builds == 2
        assert second.param_counter > first.param_counter

    def test_graph_mutation_rebuilds_snapshot(self, served_classifier):
        service = PredictionService(served_classifier)
        first = service.snapshot()
        served_classifier.trainer_.dataset.graph.invalidate_caches()
        second = service.snapshot()
        assert second is not first
        assert second.graph_version > first.graph_version

    def test_cache_invalidation_forces_rebuild(self, served_classifier):
        service = PredictionService(served_classifier)
        first = service.snapshot()
        served_classifier.inference_engine.invalidate()
        second = service.snapshot()
        assert second is not first
        # Parameters never changed, so the rebuild is value-identical.
        np.testing.assert_array_equal(second.predictions, first.predictions)

    def test_as_service_bridge(self, served_classifier):
        service = served_classifier.as_service()
        assert isinstance(service, PredictionService)
        assert service.classifier is served_classifier


class TestQueryParity:
    def test_single_query_matches_fresh_load_predict(self, served_checkpoint,
                                                     served_classifier):
        reference = OpenWorldClassifier.load(served_checkpoint).predict()
        service = PredictionService(served_classifier)
        for node in (0, 1, 17, len(reference) - 1):
            assert service.query_one(node)["prediction"] == int(reference[node])

    def test_batch_matches_singles_bitwise(self, served_classifier):
        service = PredictionService(served_classifier)
        nodes = [3, 0, 41, 7, 3]  # order preserved, duplicates allowed
        batch = service.query(nodes)
        singles = [service.query_one(n) for n in nodes]
        assert batch == singles

    def test_payload_contents(self, served_classifier):
        service = PredictionService(served_classifier)
        snapshot = service.snapshot()
        payload = service.query_one(2)
        assert payload["node"] == 2
        assert len(payload["known_logits"]) == len(snapshot.seen_classes)
        assert payload["cluster"] == int(snapshot.cluster_labels[2])
        if payload["is_novel"]:
            assert payload["prediction"] >= snapshot.novel_offset
            assert payload["novel_cluster"] == payload["cluster"]
        else:
            assert payload["prediction"] in set(int(c) for c in snapshot.seen_classes)
            assert payload["novel_cluster"] is None

    def test_novel_and_seen_both_served(self, served_classifier):
        service = PredictionService(served_classifier)
        num_nodes = service.snapshot().num_nodes
        flags = {service.query_one(n)["is_novel"] for n in range(num_nodes)}
        assert flags == {True, False}

    def test_out_of_range_node_rejected(self, served_classifier):
        service = PredictionService(served_classifier)
        num_nodes = service.snapshot().num_nodes
        with pytest.raises(IndexError):
            service.query_one(num_nodes)
        with pytest.raises(IndexError):
            service.query_one(-1)

    @pytest.mark.parametrize("raw", [2.7, True, "5", np.float64(3.9)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_node_rejected(self, served_classifier, raw):
        service = PredictionService(served_classifier)
        num_nodes = service.snapshot().num_nodes
        # The type check runs before any lookup: no IndexError for the first id.
        with pytest.raises(TypeError):
            service.query([num_nodes, raw])

    def test_numpy_integer_node_accepted(self, served_classifier):
        service = PredictionService(served_classifier)
        assert service.query([np.int64(4)]) == service.query([4])


class TestDiagnostics:
    def test_stats_and_info(self, served_classifier):
        service = PredictionService(served_classifier)
        service.query([0, 1])
        stats = service.stats()
        assert stats["snapshot_builds"] == 1
        assert stats["encoder_forwards"] == 1
        assert stats["embedding_cache"]["misses"] >= 1
        info = service.info()
        assert info["method"] == "openima"
        assert info["num_nodes"] == service.snapshot().num_nodes
