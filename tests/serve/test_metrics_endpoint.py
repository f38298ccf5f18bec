"""GET /metrics, obs-backed /stats, request event log, and stats immutability.

The Prometheus exposition served over real HTTP must survive the strict
parser from ``tests/obs/test_prometheus_format.py`` — the same bar an actual
scraper sets.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.serve import (
    ModelServer,
    PredictionService,
    ServeClient,
    ServeClientError,
    ServeConfig,
)
from repro.serve.server import PROMETHEUS_CONTENT_TYPE
from tests.obs.test_prometheus_format import (
    check_histogram_invariants,
    parse_prometheus,
)


@pytest.fixture()
def running_server(served_classifier):
    server = ModelServer(
        PredictionService(served_classifier),
        ServeConfig(port=0),
    )
    server.serve_in_background()
    client = ServeClient(port=server.port)
    client.wait_until_ready(timeout=10)
    yield server, client
    client.close()
    server.shutdown()


class TestMetricsEndpoint:
    def test_exposition_passes_strict_parser(self, running_server):
        _, client = running_server
        client.predict(0)
        client.predict_batch([1, 2, 3])
        families = parse_prometheus(client.metrics())
        assert families["repro_serve_requests_total"]["type"] == "counter"
        assert families["repro_serve_request_seconds"]["type"] == "histogram"
        check_histogram_invariants(
            families["repro_serve_request_seconds"],
            "repro_serve_request_seconds")

    def test_per_endpoint_counters_move(self, running_server):
        _, client = running_server
        client.predict(0)
        client.health()
        samples = parse_prometheus(
            client.metrics())["repro_serve_requests_total"]["samples"]

        def count(endpoint, status):
            key = ("repro_serve_requests_total",
                   (("endpoint", endpoint), ("status", status)))
            return samples.get(key, 0.0)

        assert count("/predict", "200") >= 1
        assert count("/health", "200") >= 1

    def test_error_statuses_labelled(self, running_server):
        _, client = running_server
        with pytest.raises(ServeClientError):
            client._request("GET", "/nope")
        with pytest.raises(ServeClientError):
            client._request("POST", "/predict", {"wrong": 1})
        samples = parse_prometheus(
            client.metrics())["repro_serve_requests_total"]["samples"]
        statuses = {dict(labels)["status"]
                    for (_name, labels) in samples}
        assert "404" in statuses
        assert "400" in statuses

    def test_unknown_paths_fold_into_other_endpoint(self, running_server):
        # Label cardinality stays bounded no matter what paths clients probe.
        _, client = running_server
        for path in ("/nope", "/admin", "/x" * 50):
            with pytest.raises(ServeClientError):
                client._request("GET", path)
        samples = parse_prometheus(
            client.metrics())["repro_serve_requests_total"]["samples"]
        endpoints = {dict(labels)["endpoint"] for (_name, labels) in samples}
        assert "other" in endpoints
        assert not any(endpoint.startswith("/x") for endpoint in endpoints)

    def test_content_type_is_prometheus_text(self, running_server):
        server, _ = running_server
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
            response.read()
        finally:
            conn.close()

    def test_inflight_gauge_present(self, running_server):
        _, client = running_server
        client.health()
        families = parse_prometheus(client.metrics())
        gauge = families["repro_serve_inflight_requests"]
        assert gauge["type"] == "gauge"
        # The /metrics request itself is in flight while rendering.
        value = gauge["samples"][("repro_serve_inflight_requests", ())]
        assert value >= 1.0


    def test_predicted_novel_share_gauge_present(self, running_server):
        server, client = running_server
        snapshot = server.service.snapshot()
        share = float((snapshot.predictions >= snapshot.novel_offset).mean())
        gauge = parse_prometheus(
            client.metrics())["repro_serve_predicted_novel_share"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"][("repro_serve_predicted_novel_share", ())] == (
            pytest.approx(share))
        summary = client.stats()["obs"]["metrics"]
        assert summary["repro_serve_predicted_novel_share"] == {
            "kind": "gauge", "values": {"": share}}


class TestStatsObsSection:
    def test_stats_embeds_obs_summary(self, running_server):
        _, client = running_server
        client.predict(0)
        stats = client.stats()
        assert set(stats["obs"]) == {"metrics", "events", "tracing"}
        assert any(name.startswith("repro_serve_")
                   for name in stats["obs"]["metrics"])

    def test_metrics_and_stats_consistent_under_concurrency(self, running_server):
        server, client = running_server
        failures = []

        def worker(i):
            try:
                with ServeClient(port=server.port) as local:
                    for _ in range(10):
                        local.predict(i)
                        parse_prometheus(local.metrics())
                        stats = local.stats()
                        assert stats["obs"]["metrics"], "obs section empty"
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        # Counters only ever grow: a final scrape sees at least the 40
        # /predict requests the workers issued.
        samples = parse_prometheus(
            client.metrics())["repro_serve_requests_total"]["samples"]
        predict_ok = samples[("repro_serve_requests_total",
                              (("endpoint", "/predict"), ("status", "200")))]
        assert predict_ok >= 40


class TestRequestEventLog:
    def test_requests_logged_at_debug(self, running_server):
        _, client = running_server
        client.health()
        with pytest.raises(ServeClientError):
            client._request("GET", "/nope")
        events = obs.EVENTS.snapshot(level="debug")
        serve_events = [event for event in events
                        if event["source"] == "serve.http"]
        assert any("/health" in event["message"] for event in serve_events)
        # 4xx responses are diagnosable from the event log.
        assert any("404" in event["message"] for event in serve_events)


class TestStatsImmutability:
    def test_mutating_returned_stats_does_not_corrupt_service(
            self, served_classifier):
        service = PredictionService(served_classifier)
        service.query([0, 1])
        stats = service.stats()
        # Regression: stats() used to hand out live references.
        stats["snapshot_builds"] = 999
        if isinstance(stats["embedding_cache"], dict):
            stats["embedding_cache"]["hits"] = -5
        fresh = service.stats()
        assert fresh["snapshot_builds"] != 999
        if isinstance(fresh["embedding_cache"], dict):
            assert fresh["embedding_cache"]["hits"] >= 0
        assert fresh is not stats
