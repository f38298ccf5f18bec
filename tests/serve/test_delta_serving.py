"""Streaming delta ingestion through the serving layer.

A live server must absorb graph growth without a cold rebuild: the service
mutates its graph through a persistent DynamicGraph, patches the embedding
cache over the affected receptive field, and atomically swaps the snapshot.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.graphs import GraphDelta
from repro.serve import (
    ModelServer,
    PredictionService,
    ServeClient,
    ServeClientError,
    ServeConfig,
)


def arrival_delta(graph, num_new=1, seed=0):
    """A small delta anchoring each new node to an existing one."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    return GraphDelta.undirected(
        add_features=rng.normal(size=(num_new, graph.features.shape[1])),
        add_edges=np.vstack([np.arange(n, n + num_new),
                             rng.integers(n, size=num_new)]),
    )


def outcome_within(call, timeout=2.0):
    """``{"value": ...}`` or ``{"error": ...}`` of ``call()``, failing the test
    if it does not return within ``timeout`` seconds (it keeps running in a
    daemon thread)."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except Exception as error:
            outcome["error"] = error

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no return within {timeout} s"
    return outcome


class HeldBuild:
    """Holds every snapshot build, inside the writer lock, until released."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        build = PredictionService._build_snapshot

        def held(service):
            self.entered.set()
            # Bounded, so a failing test cannot leave the writer parked.
            self.release.wait(30)
            return build(service)

        monkeypatch.setattr(PredictionService, "_build_snapshot", held)


class TestServiceApplyDelta:
    def test_snapshot_swapped_and_new_node_queryable(self, served_classifier):
        service = PredictionService(served_classifier)
        before = service.warm()
        graph = served_classifier.trainer_.dataset.graph
        new_node = graph.num_nodes

        summary = service.apply_delta(arrival_delta(graph))
        assert summary["deltas_applied"] == 1
        assert summary["model_version"]["graph_version"] == before.graph_version + 1

        after = service.snapshot()
        assert after is not before
        assert after.num_nodes == before.num_nodes + 1
        payload = service.query_one(new_node)
        assert payload["node"] == new_node
        assert isinstance(payload["prediction"], int)

    def test_small_delta_is_served_by_partial_refresh(self, served_classifier):
        service = PredictionService(served_classifier)
        service.warm()
        engine = served_classifier.trainer_.inference_engine
        forwards_before = engine.forward_count
        graph = served_classifier.trainer_.dataset.graph

        service.apply_delta(arrival_delta(graph))
        stats = service.stats()
        assert stats["deltas_applied"] == 1
        assert stats["partial_refreshes"] == 1
        # The refresh patched the cache: no monolithic pass was added.
        assert engine.forward_count == forwards_before

    def test_consecutive_deltas_keep_dynamic_state(self, served_classifier):
        service = PredictionService(served_classifier)
        service.warm()
        graph = served_classifier.trainer_.dataset.graph
        start = graph.num_nodes
        for seed in range(3):
            service.apply_delta(arrival_delta(graph, seed=seed))
        assert graph.num_nodes == start + 3
        assert service.stats()["deltas_applied"] == 3
        # Every added node answers queries from the republished snapshot.
        payloads = service.query(list(range(start, start + 3)))
        assert [p["node"] for p in payloads] == list(range(start, start + 3))

    def test_reader_holding_old_snapshot_stays_consistent(self, served_classifier):
        service = PredictionService(served_classifier)
        old = service.warm()
        graph = served_classifier.trainer_.dataset.graph
        service.apply_delta(arrival_delta(graph))
        # The pre-delta snapshot still answers within its own node range.
        payload = old.query([0])[0]
        assert payload["node"] == 0
        with pytest.raises(IndexError):
            old.query([old.num_nodes])

    def test_query_during_delta_gets_pre_delta_answer(self, served_classifier,
                                                      monkeypatch):
        service = PredictionService(served_classifier)
        service.warm()
        before = service.query([0])
        builds = service.snapshot_builds
        graph = served_classifier.trainer_.dataset.graph
        new_node = graph.num_nodes
        held = HeldBuild(monkeypatch)
        writer = threading.Thread(target=service.apply_delta,
                                  args=(arrival_delta(graph),), daemon=True)
        writer.start()
        try:
            assert held.entered.wait(10)
            assert outcome_within(lambda: service.query([0])) == {"value": before}
            added = outcome_within(lambda: service.query([new_node]))
            assert isinstance(added.get("error"), IndexError)
        finally:
            held.release.set()
            writer.join(30)
        assert not writer.is_alive()
        assert service.query_one(new_node)["node"] == new_node
        assert service.snapshot_builds == builds + 1


@pytest.fixture()
def running_server(served_classifier):
    server = ModelServer(
        PredictionService(served_classifier),
        ServeConfig(port=0, batch_window_ms=1.0),
    )
    server.serve_in_background()
    client = ServeClient(port=server.port)
    client.wait_until_ready(timeout=10)
    yield served_classifier, server, client
    client.close()
    server.shutdown()


class TestHTTPDelta:
    def test_round_trip_grows_the_served_graph(self, running_server):
        classifier, _, client = running_server
        graph = classifier.trainer_.dataset.graph
        new_node = graph.num_nodes
        features = np.random.default_rng(1).normal(
            size=graph.features.shape[1]).tolist()

        summary = client.apply_delta(features=[features],
                                     edges=[[new_node], [0]])
        assert summary["new_num_nodes"] == summary["old_num_nodes"] + 1
        assert summary["deltas_applied"] == 1

        payload = client.predict(new_node)
        assert payload["node"] == new_node
        health = client.health()
        assert health["num_nodes"] == new_node + 1

    def test_reads_during_delta_answer_from_the_old_snapshot(self, running_server,
                                                             monkeypatch):
        classifier, server, client = running_server
        graph = classifier.trainer_.dataset.graph
        new_node = graph.num_nodes
        before = client.predict(0)
        builds = server.service.snapshot_builds
        held = HeldBuild(monkeypatch)
        features = [0.5] * graph.features.shape[1]
        summary = {}

        def post_delta():
            with ServeClient(port=server.port) as writer_client:
                summary.update(writer_client.apply_delta(
                    features=[features], edges=[[new_node], [0]]))

        writer = threading.Thread(target=post_delta, daemon=True)
        writer.start()
        try:
            assert held.entered.wait(10)
            assert outcome_within(lambda: client.predict(0)) == {"value": before}
            health = outcome_within(client.health)["value"]
            assert health["num_nodes"] == new_node
            added = outcome_within(lambda: client.predict(new_node))
            assert added["error"].status == 400
        finally:
            held.release.set()
            writer.join(30)
        assert not writer.is_alive()
        assert summary["new_num_nodes"] == new_node + 1
        assert client.predict(new_node)["node"] == new_node
        assert server.service.snapshot_builds == builds + 1

    def test_timed_out_delta_is_not_sent_again(self, running_server, monkeypatch):
        """A client timeout must not re-send ``POST /delta``: the server may
        still be applying the first one."""
        classifier, server, _ = running_server
        graph = classifier.trainer_.dataset.graph
        before = graph.num_nodes
        build = PredictionService._build_snapshot

        def slow_build(service):
            time.sleep(1.0)
            return build(service)

        monkeypatch.setattr(PredictionService, "_build_snapshot", slow_build)
        features = [0.25] * graph.features.shape[1]
        with ServeClient(port=server.port, timeout=0.5) as impatient:
            with pytest.raises(TimeoutError):
                impatient.apply_delta(features=[features], edges=[[before], [0]])
        with ServeClient(port=server.port) as patient:
            deadline = time.monotonic() + 10
            while patient.health()["num_nodes"] == before:
                assert time.monotonic() < deadline, "the delta was never published"
                time.sleep(0.05)
            # Long enough for a re-sent delta to take the writer lock.
            time.sleep(0.5)
            assert server.service.deltas_applied == 1
            assert graph.num_nodes == before + 1
            assert patient.health()["num_nodes"] == before + 1

    def test_stats_expose_streaming_counters(self, running_server):
        classifier, _, client = running_server
        graph = classifier.trainer_.dataset.graph
        features = [0.0] * graph.features.shape[1]
        client.apply_delta(features=[features],
                           edges=[[graph.num_nodes], [1]])
        service_stats = client.stats()["service"]
        assert service_stats["deltas_applied"] == 1
        assert service_stats["partial_refreshes"] >= 1
        assert "full_refreshes" in service_stats

    def test_unknown_field_rejected(self, running_server):
        _, _, client = running_server
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/delta", {"nodes": [[1.0]]})
        assert excinfo.value.status == 400
        assert "unknown delta fields" in str(excinfo.value)

    def test_wrong_feature_width_rejected(self, running_server):
        _, _, client = running_server
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_delta(features=[[1.0, 2.0]])
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("bad", ["nan", "inf", "float_edge", "bool_label"])
    def test_rejected_delta_leaves_server_intact(self, running_server, bad):
        classifier, _, client = running_server
        graph = classifier.trainer_.dataset.graph
        num_nodes = graph.num_nodes
        row = [0.5] * graph.features.shape[1]
        payload = {"features": [row], "edges": [[num_nodes], [0]]}
        if bad in ("nan", "inf"):
            payload["features"] = [[float(bad), *row[1:]]]
        elif bad == "float_edge":
            payload["edges"] = [[num_nodes], [2.5]]
        else:
            payload["labels"] = [True]
        before = client.predict(3)

        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/delta", payload)
        assert excinfo.value.status == 400
        assert graph.num_nodes == num_nodes
        assert client.health()["num_nodes"] == num_nodes
        assert client.predict(3) == before

    def test_out_of_range_edge_rejected(self, running_server):
        classifier, _, client = running_server
        graph = classifier.trainer_.dataset.graph
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_delta(edges=[[graph.num_nodes + 5], [0]])
        assert excinfo.value.status == 400
