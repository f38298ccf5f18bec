"""Stdlib HTTP transport for the prediction service.

:class:`ModelServer` glues the pieces together: a
:class:`~repro.serve.service.PredictionService` owns the model (single
writer), a :class:`~repro.serve.coalescer.RequestCoalescer` micro-batches
concurrent queries, a :class:`~http.server.ThreadingHTTPServer` handles the
sockets (many readers), and a :class:`~repro.serve.metrics.LatencyRecorder`
tracks per-request latency.  Reads never wait for a write: while
``POST /delta`` holds the writer lock, ``/predict`` and ``/health`` answer
from the last published snapshot, so a node the delta adds gets 400 until
the new snapshot is swapped in.  Endpoints:

* ``GET  /health``  — liveness + model identity
* ``GET  /stats``   — latency percentiles, qps, cache hit rate, batch sizes,
  the BLAS thread count (``blas_threads``), plus the ``repro.obs``
  registry/event summary
* ``GET  /metrics`` — the process-wide metric registry in Prometheus text
  exposition format (request latency histograms, cache hit/miss counters,
  coalescer queue depth, in-flight gauge, ...)
* ``POST /predict`` — ``{"node": 3}`` or ``{"nodes": [3, 4, 5]}`` →
  per-node known-class logits, cluster assignment, and prediction
* ``POST /delta``   — ``{"features": [[...]], "edges": [[u...], [w...]],
  "labels": [...], "undirected": true}`` → ingest a graph delta and
  republish the snapshot without a cold rebuild (partial embedding refresh)

Every request is observed: per-endpoint/status counters and latency
histograms land in :data:`repro.obs.REGISTRY`, an in-flight gauge tracks
concurrency, and the stdlib request log (previously discarded) is routed
into :data:`repro.obs.EVENTS` at debug level so 4xx/5xx responses are
diagnosable after the fact.

Shutdown is graceful: SIGINT/SIGTERM (or :meth:`ModelServer.shutdown`)
stops accepting connections, lets in-flight replies finish, closes every
open keep-alive connection, drains the coalescer, and unblocks
:meth:`serve_forever`.
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..core.config import SerializableConfig
from ..obs import EVENTS, REGISTRY, TRACER, span
from ..obs.clock import monotonic as _monotonic
from .blas import blas_threads
from .coalescer import RequestCoalescer
from .metrics import LatencyRecorder
from .service import PredictionService

#: Content type mandated by the Prometheus text exposition format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Known endpoints; anything else is labelled "other" to bound cardinality.
_ENDPOINTS = frozenset(("/health", "/stats", "/metrics", "/predict", "/delta"))

_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "HTTP requests served, by endpoint and response status.",
    labelnames=("endpoint", "status"))
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_serve_request_seconds",
    "End-to-end HTTP request latency in seconds, by endpoint.",
    labelnames=("endpoint",))
_INFLIGHT = REGISTRY.gauge(
    "repro_serve_inflight_requests",
    "HTTP requests currently being handled.")


@dataclass
class ServeConfig(SerializableConfig):
    """Transport/batching knobs for :class:`ModelServer`."""

    host: str = "127.0.0.1"
    port: int = 8741
    batch_window_ms: float = 2.0
    max_batch: int = 1024
    warm: bool = True


def _check_json_ints(values, what: str) -> None:
    """Reject anything but JSON integers in ``values``; ``true`` is not 1."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{what} must be JSON integers, got {value!r}")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ModelServer`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK (~40 ms per keep-alive
    # response).  StreamRequestHandler sets TCP_NODELAY when this is true.
    disable_nagle_algorithm = True
    #: Largest request body read, in bytes; a larger Content-Length gets 413.
    max_body_bytes = 16 << 20
    #: Seconds a request body may take to arrive before the connection is
    #: closed.  Set only around the body read, so idle keep-alive
    #: connections are not timed out.
    body_timeout_s = 10.0

    # The ModelServer is attached to the socket server instance.
    @property
    def model_server(self) -> "ModelServer":
        return self.server.model_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # stdlib signature
        # Printing would drown the benchmark output, but discarding made
        # 4xx/5xx undiagnosable — route into the bounded obs event log
        # instead (queryable via /stats and `repro obs summary`).
        EVENTS.debug(format % args, source="serve.http",
                     client=self.client_address[0])

    def _endpoint(self) -> str:
        return self.path if self.path in _ENDPOINTS else "other"

    def _observe(self, status: int) -> None:
        endpoint = self._endpoint()
        started = getattr(self, "_started", None)
        if started is not None:
            _REQUEST_SECONDS.observe(_monotonic() - started,
                                     endpoint=endpoint)
        _REQUESTS.inc(endpoint=endpoint, status=str(status))

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError) as exc:
            # The client hung up (e.g. it timed out) before its reply was
            # written; its stream is gone, so close instead of a traceback.
            self.close_connection = True
            EVENTS.warning("client disconnected before the reply was written",
                           source="serve.http", client=self.client_address[0],
                           path=self.path, status=status, error=type(exc).__name__)
        self._observe(status)

    def _reply(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json")

    def do_GET(self) -> None:  # stdlib naming
        self._started = _monotonic()
        _INFLIGHT.inc()
        try:
            with span("serve.request", method="GET",
                      endpoint=self._endpoint()):
                self._route_get()
        finally:
            _INFLIGHT.dec()

    def _route_get(self) -> None:
        if self.path == "/health":
            self._reply(200, self.model_server.health())
        elif self.path == "/stats":
            self._reply(200, self.model_server.stats())
        elif self.path == "/metrics":
            self._send(200, REGISTRY.render_prometheus().encode(),
                       PROMETHEUS_CONTENT_TYPE)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # stdlib naming
        self._started = _monotonic()
        _INFLIGHT.inc()
        try:
            with span("serve.request", method="POST",
                      endpoint=self._endpoint()):
                self._route_post()
        finally:
            _INFLIGHT.dec()

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None after replying with an error.

        A Content-Length that is not a non-negative integer gets 400, one
        above :attr:`max_body_bytes` gets 413, and a body that stops
        arriving for :attr:`body_timeout_s` gets 408.  After any of them
        the connection is closed, since its stream no longer sits at a
        request boundary.
        """
        header = self.headers.get("Content-Length", "0").strip()
        length = int(header) if header.isascii() and header.isdigit() else -1
        if length < 0 or length > self.max_body_bytes:
            self.close_connection = True
            if length < 0:
                self._reply(400, {"error": f"invalid Content-Length {header!r}"})
            else:
                self._reply(413, {"error": f"request body of {length} bytes exceeds "
                                           f"the {self.max_body_bytes}-byte limit"})
            return None
        self.connection.settimeout(self.body_timeout_s)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            body = b""
        finally:
            self.connection.settimeout(self.timeout)
        if len(body) < length:
            self.close_connection = True
            # The client may be gone already; the connection closes anyway.
            with contextlib.suppress(OSError):
                self._reply(408, {"error": "request body incomplete"})
            return None
        return body

    def _route_post(self) -> None:
        body = self._read_body()
        if body is None:
            return
        if self.path == "/delta":
            try:
                request = json.loads(body or b"{}")
                summary = self.model_server.apply_delta(request)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(200, summary)
            return
        if self.path != "/predict":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            request = json.loads(body or b"{}")
            if "node" in request:
                nodes = [request["node"]]
                single = True
            elif "nodes" in request:
                nodes = list(request["nodes"])
                single = False
            else:
                raise ValueError('request needs "node" or "nodes"')
            if not nodes:
                raise ValueError("empty node list")
            _check_json_ints(nodes, "node ids")
            results = self.model_server.predict(nodes)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        except RuntimeError as exc:
            self._reply(503, {"error": str(exc)})
            return
        payload = {
            "results": results,
            "model_version": self.model_server.service.snapshot().version,
        }
        if single:
            payload["result"] = results[0]
        self.model_server.latency.record(_monotonic() - self._started)
        self._reply(200, payload)


class _HTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can end its open connections.

    Handler threads are daemons, and a keep-alive connection keeps its
    thread for as long as the client holds it open, so a stopped server
    would otherwise go on answering on idle connections.
    """

    daemon_threads = True

    def __init__(self, address: tuple, handler: type):
        super().__init__(address, handler)
        self._open_lock = threading.Lock()
        #: Open connection -> the thread handling it.
        self._open: dict = {}

    def process_request(self, request, client_address) -> None:
        # Registered here, on the accept loop, so a connection accepted
        # before the loop stopped is closed even if its thread has not
        # started yet.
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout_s: float) -> None:
        """Close every open connection for reading, then join its thread.

        A handler waiting for the next request reads end-of-stream and
        returns; one still answering finishes its reply first, since
        writing stays open.  The joins share one ``timeout_s`` bound.
        """
        with self._open_lock:
            connections = list(self._open.items())
        for request, _ in connections:
            with contextlib.suppress(OSError):  # closed by its handler meanwhile
                request.shutdown(socket.SHUT_RD)
        deadline = _monotonic() + timeout_s
        for _, thread in connections:
            thread.join(max(0.0, deadline - _monotonic()))


class ModelServer:
    """Persistent prediction server over a checkpointed classifier.

    Load once, serve many: the underlying service keeps the versioned
    embedding cache warm, so after the first query (or an explicit
    :meth:`start` with ``config.warm``) every request is answered without
    an encoder pass until the model or graph version changes.
    """

    #: Seconds a shutdown waits for open connections' handlers to finish.
    SHUTDOWN_TIMEOUT_S = 5.0

    def __init__(self, service: PredictionService,
                 config: Optional[ServeConfig] = None):
        self.service = service
        self.config = config or ServeConfig()
        self.latency = LatencyRecorder()
        self.coalescer = RequestCoalescer(
            service.query,
            batch_window_ms=self.config.batch_window_ms,
            max_batch=self.config.max_batch,
        )
        self._httpd: Optional[_HTTPServer] = None
        self._serving = threading.Event()
        self._shutdown_started = threading.Event()
        self._stopped = threading.Event()
        #: Orders binding and the accept loop's start against shutdown().
        self._lifecycle = threading.Lock()
        self._looping = False  # guarded-by: _lifecycle

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ModelServer":
        """Bind the socket, warm the snapshot, and start the coalescer.

        A no-op once started, and once :meth:`shutdown` has begun.
        """
        if self._httpd is not None or self._shutdown_started.is_set():
            return self
        if self.config.warm:
            self.service.warm()
        with self._lifecycle:
            if self._httpd is not None or self._shutdown_started.is_set():
                return self
            self._httpd = _HTTPServer((self.config.host, self.config.port), _Handler)
            self._httpd.model_server = self  # type: ignore[attr-defined]
            self.coalescer.start()
            self._serving.set()
        return self

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (port resolved when config.port is 0)."""
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address

    @property
    def port(self) -> int:
        return int(self.address[1])

    def serve_forever(self, install_signals: bool = False) -> None:
        """Block serving requests until :meth:`shutdown` (or SIGINT/SIGTERM).

        Returns at once when :meth:`shutdown` has already begun.
        """
        self.start()
        if install_signals:
            self.install_signal_handlers()
        with self._lifecycle:
            if self._shutdown_started.is_set():
                return
            self._looping = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._finalize()

    def serve_in_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (tests/benchmarks)."""
        self.start()
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        return thread

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM to a graceful shutdown."""

        def handler(signum, frame):
            # shutdown() must not run on the thread blocked in
            # serve_forever (it would deadlock waiting for the loop), and
            # signal handlers run on the main thread — hand it off.
            threading.Thread(target=self.shutdown,
                             name="repro-serve-shutdown").start()

        signal.signal(signal.SIGINT, handler)
        signal.signal(signal.SIGTERM, handler)

    def shutdown(self) -> None:
        """Stop accepting requests, finish in-flight replies, close every
        connection and release the port.

        Returns once :meth:`serve_forever` has done so, or after
        :attr:`SHUTDOWN_TIMEOUT_S` if a handler is still busy.  When the
        accept loop never started, it finalizes here instead.
        """
        with self._lifecycle:
            if self._shutdown_started.is_set():
                return
            self._shutdown_started.set()
            looping, httpd = self._looping, self._httpd
        if looping:
            httpd.shutdown()
            self._stopped.wait(self.SHUTDOWN_TIMEOUT_S)
        else:
            # socketserver's shutdown() would wait for a loop that never ran.
            self._finalize()

    def _finalize(self) -> None:
        self._serving.clear()
        if self._httpd is not None:
            # Before the coalescer stops, so in-flight queries still answer.
            self._httpd.close_connections(self.SHUTDOWN_TIMEOUT_S)
        self.coalescer.stop()
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None
        self._stopped.set()

    # ------------------------------------------------------------------
    # Request surface (used by the HTTP handler and direct callers)
    # ------------------------------------------------------------------
    def predict(self, nodes) -> list:
        """Answer a query through the coalescer (micro-batched)."""
        return self.coalescer.predict(nodes)

    def health(self) -> dict:
        info = self.service.info()
        info["status"] = "ok"
        return info

    def apply_delta(self, payload: dict) -> dict:
        """Decode a JSON delta payload and ingest it through the service.

        ``features`` is required (row-major list of new node feature
        vectors; ``[]`` for an edges-only delta), ``edges`` is the optional
        ``[sources, destinations]`` pair, ``labels`` the optional
        ground-truth labels of the new nodes; ids and labels must be JSON
        integers.  With ``undirected`` (the default) the edges are
        symmetrized server-side, matching the repository's
        both-directions storage convention.
        """
        # Imported lazily to keep the transport importable without numpy
        # being touched at module import time in minimal tooling contexts.
        import numpy as np

        from ..graphs.delta import GraphDelta

        if not isinstance(payload, dict):
            raise ValueError("delta payload must be a JSON object")
        unknown = set(payload) - {"features", "edges", "labels", "undirected"}
        if unknown:
            raise ValueError(f"unknown delta fields {sorted(unknown)}")
        graph = self.service._trainer.dataset.graph
        features = np.asarray(payload.get("features", []), dtype=np.float64)
        if features.size == 0:
            features = features.reshape(0, graph.features.shape[1])
        edges = payload.get("edges", [[], []])
        for endpoints in edges:
            _check_json_ints(endpoints, "edge endpoints")
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(2, 0)
        labels = payload.get("labels")
        if labels is not None:
            _check_json_ints(labels, "labels")
            labels = np.asarray(labels, dtype=np.int64)
        if payload.get("undirected", True):
            delta = GraphDelta.undirected(features, edges, labels)
        else:
            delta = GraphDelta(add_features=features, add_edges=edges,
                               add_labels=labels)
        return self.service.apply_delta(delta)

    def stats(self) -> dict:
        return {
            "latency": self.latency.snapshot(),
            "coalescer": self.coalescer.stats(),
            "service": self.service.stats(),
            "blas_threads": blas_threads(),
            "obs": {
                "metrics": REGISTRY.summary(prefix="repro_serve"),
                "events": EVENTS.counts(),
                "tracing": TRACER.stats(),
            },
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition the ``/metrics`` endpoint serves."""
        return REGISTRY.render_prometheus()

    def __repr__(self) -> str:
        state = "serving" if self._serving.is_set() else "stopped"
        return (f"ModelServer({self.service.classifier.method!r}, "
                f"{self.config.host}:{self.config.port}, {state})")
