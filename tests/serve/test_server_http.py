"""ModelServer over real sockets: round-trips, parity, graceful shutdown."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.api import OpenWorldClassifier
from repro.obs import EVENTS
from repro.serve import (
    ModelServer,
    PredictionService,
    ServeClient,
    ServeClientError,
    ServeConfig,
)
from repro.serve.server import _Handler


def _raw_post(port: int, content_length: str, body: bytes) -> int:
    """POST /predict with a hand-written Content-Length; the response status.

    Reads until the server closes the connection (each rejected body
    closes it), so a server that never answers fails the socket timeout.
    """
    head = (f"POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode()
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(head + body)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return int(response.split(b" ", 2)[1])


@pytest.fixture()
def running_server(served_classifier):
    server = ModelServer(
        PredictionService(served_classifier),
        ServeConfig(port=0, batch_window_ms=1.0),
    )
    server.serve_in_background()
    client = ServeClient(port=server.port)
    client.wait_until_ready(timeout=10)
    yield server, client
    client.close()
    server.shutdown()


class TestHTTPEndpoints:
    def test_health(self, running_server):
        _, client = running_server
        health = client.health()
        assert health["status"] == "ok"
        assert health["method"] == "openima"
        assert health["num_nodes"] > 0

    def test_single_node_predict(self, running_server, served_checkpoint):
        _, client = running_server
        reference = OpenWorldClassifier.load(served_checkpoint).predict()
        for node in (0, 5, 60):
            payload = client.predict(node)
            assert payload["node"] == node
            assert payload["prediction"] == int(reference[node])

    def test_batch_matches_singles_bitwise(self, running_server):
        _, client = running_server
        nodes = [9, 0, 33, 9]
        assert client.predict_batch(nodes) == [client.predict(n) for n in nodes]

    def test_stats_counters_move(self, running_server):
        _, client = running_server
        client.predict_batch([0, 1, 2])
        client.predict(3)
        stats = client.stats()
        assert stats["latency"]["requests"] >= 2
        assert stats["latency"]["p50_ms"] is not None
        assert stats["latency"]["p99_ms"] is not None
        assert stats["coalescer"]["requests"] >= 2
        assert stats["service"]["snapshot_builds"] == 1

    def test_bad_requests_rejected(self, running_server, monkeypatch):
        server, client = running_server
        num_nodes = server.service.snapshot().num_nodes
        with pytest.raises(ServeClientError) as exc:
            client.predict(num_nodes + 5)
        assert exc.value.status == 400
        with pytest.raises(ServeClientError):
            client.predict_batch([])
        with pytest.raises(ServeClientError):
            client._request("POST", "/predict", {"wrong": 1})
        with pytest.raises(ServeClientError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404
        # Node ids must be JSON integers: no float truncation, bool or
        # string coercion.
        for node in (1.7, True, "3"):
            with pytest.raises(ServeClientError) as exc:
                client._request("POST", "/predict", {"node": node})
            assert exc.value.status == 400
        # Hostile Content-Length headers are answered without reading the
        # body: -1 would read until EOF and a huge length until the client
        # leaves, each holding a handler thread without a response.
        for length, status in (("-1", 400), ("12abc", 400), ("1_0", 400),
                               ("999999999", 413)):
            assert _raw_post(server.port, length, b'{"node": 0}') == status
        # A body that stops arriving closes its connection after the timeout.
        monkeypatch.setattr(_Handler, "body_timeout_s", 0.2)
        assert _raw_post(server.port, "100", b'{"node": 0}') == 408
        assert client.health()["status"] == "ok"

    def test_keep_alive_requests_do_not_stall(self, running_server):
        """Sequential requests on one connection never wait for a delayed ACK."""
        _, client = running_server
        client.predict(0)
        start = time.perf_counter()
        for _ in range(20):
            client.predict(0)
        # About 2 ms each with TCP_NODELAY; about 42 ms each without it.
        assert time.perf_counter() - start < 0.4

    def test_closed_keep_alive_connection_is_retried_once(self, running_server,
                                                          monkeypatch):
        """A request on a kept-alive connection the server has since closed
        is sent once more on a new connection."""
        _, client = running_server
        # Idle connections now time out server-side after 0.1 s.
        monkeypatch.setattr(_Handler, "timeout", 0.1)
        expected = client.predict(0)
        with ServeClient(port=client.port) as kept:
            assert kept.predict(0) == expected
            first = kept._conn
            time.sleep(0.5)  # the server closes the idle connection
            assert kept.predict(0) == expected
            assert kept._conn is not first

    def test_client_gone_before_reply_is_logged_not_raised(self):
        """A reply to a client that hung up is an obs event, not a traceback."""

        class HungUp:
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

        handler = _Handler.__new__(_Handler)
        handler.wfile = HungUp()
        handler.request_version = handler.protocol_version
        handler.requestline = "POST /delta HTTP/1.1"
        handler.command, handler.path = "POST", "/delta"
        handler.client_address = ("127.0.0.1", 0)
        handler.close_connection = False
        before = EVENTS.counts()["warning"]
        handler._reply(200, {"ok": True})
        assert handler.close_connection
        assert EVENTS.counts()["warning"] == before + 1
        event = EVENTS.snapshot(level="warning", limit=1)[0]
        assert (event["source"], event["path"], event["error"]) == (
            "serve.http", "/delta", "BrokenPipeError")

    def test_concurrent_clients_get_identical_answers(self, running_server):
        server, client = running_server
        nodes = list(range(20))
        expected = client.predict_batch(nodes)
        results = {}

        def worker(i):
            with ServeClient(port=server.port) as local:
                results[i] = local.predict_batch(nodes)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results[i] == expected for i in results)


class TestLifecycle:
    def test_graceful_shutdown_releases_port(self, served_classifier):
        server = ModelServer(PredictionService(served_classifier),
                             ServeConfig(port=0, batch_window_ms=0.0))
        thread = server.serve_in_background()
        port = server.port
        client = ServeClient(port=port)
        client.wait_until_ready(timeout=10)
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The port is released: a second server can bind the same one.
        relisten = ModelServer(
            PredictionService(served_classifier),
            ServeConfig(port=port, batch_window_ms=0.0, warm=False),
        )
        relisten.start()
        relisten_thread = relisten.serve_in_background()
        fresh = ServeClient(port=port)
        assert fresh.wait_until_ready(timeout=10)["status"] == "ok"
        fresh.close()
        relisten.shutdown()
        relisten_thread.join(timeout=10)

    def test_shutdown_closes_idle_keep_alive_connections(self, served_classifier):
        """A stopped server neither answers on nor keeps a thread for an
        idle keep-alive connection."""
        before = set(threading.enumerate())

        def handler_threads():
            return [t for t in set(threading.enumerate()) - before
                    if "process_request_thread" in t.name and t.is_alive()]

        server = ModelServer(PredictionService(served_classifier),
                             ServeConfig(port=0, batch_window_ms=0.0))
        thread = server.serve_in_background()
        client = ServeClient(port=server.port, timeout=5)
        client.wait_until_ready(timeout=10)  # keeps its connection open
        assert handler_threads()
        server.shutdown()
        with pytest.raises(ConnectionError):
            client.predict(0)
        client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        deadline = time.monotonic() + 2.0
        while handler_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not handler_threads()

    def test_shutdown_after_start_without_serve_forever(self, served_classifier):
        """With no accept loop to stop, shutdown() frees the port and the
        coalescer itself, and a later serve_forever returns at once."""
        before = set(threading.enumerate())
        server = ModelServer(PredictionService(served_classifier),
                             ServeConfig(port=0, batch_window_ms=0.0, warm=False))
        server.start()
        port = server.port
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=2.0)
        assert not stopper.is_alive(), "shutdown() blocked"
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name == "repro-serve-coalescer" and t.is_alive()]
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))
        late = threading.Thread(target=server.serve_forever, daemon=True)
        late.start()
        late.join(timeout=2.0)
        assert not late.is_alive(), "serve_forever() ran after shutdown()"

    def test_shutdown_is_idempotent(self, served_classifier):
        server = ModelServer(PredictionService(served_classifier),
                             ServeConfig(port=0))
        thread = server.serve_in_background()
        server.shutdown()
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_warm_start_builds_snapshot_before_traffic(self, served_classifier):
        service = PredictionService(served_classifier)
        server = ModelServer(service, ServeConfig(port=0, warm=True))
        server.start()
        try:
            assert service.snapshot_builds == 1
        finally:
            thread = server.serve_in_background()
            server.shutdown()
            thread.join(timeout=10)
