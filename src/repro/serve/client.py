"""Tiny stdlib client for a running ``repro serve`` instance.

One connection per call keeps the client trivially thread-safe; for
sustained benchmarking, each thread should hold its own
:class:`ServeClient` (the underlying ``http.client`` connection is reused
across calls on one instance when possible).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import List, Optional, Sequence


class ServeClientError(RuntimeError):
    """A non-2xx response from the server (carries the decoded payload)."""

    def __init__(self, status: int, payload: dict):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Blocking JSON-over-HTTP client for :class:`~repro.serve.ModelServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8741,
                 timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, method: str, path: str, body: Optional[dict] = None,
                 text: bool = False):
        """Send one request; the decoded JSON reply (or raw text if ``text``).

        A request is re-sent once, and only when the server closed a reused
        keep-alive connection (e.g. it restarted).  A timeout is never
        retried: the server may still be applying the first request, and
        ``POST /delta`` must not be applied twice.
        """
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        reused = self._conn is not None and self._conn.sock is not None
        try:
            status, data = self._exchange(method, path, payload, headers)
        except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            status, data = self._exchange(method, path, payload, headers)
        if text:
            if status >= 400:
                raise ServeClientError(status, {"error": data.decode(errors="replace")})
            return data.decode()
        decoded = json.loads(data or b"{}")
        if status >= 400:
            raise ServeClientError(status, decoded)
        return decoded

    def _exchange(self, method: str, path: str, payload: Optional[bytes],
                  headers: dict) -> tuple:
        """``(status, body)`` of one round trip; any error closes the connection."""
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            # A half-read reply would be taken for the next request's.
            self.close()
            raise

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The server's ``/metrics`` page (Prometheus text format, raw)."""
        return self._request("GET", "/metrics", text=True)

    def predict(self, node: int) -> dict:
        """Single-node query: prediction, cluster, known-class logits."""
        return self._request("POST", "/predict", {"node": int(node)})["result"]

    def predict_batch(self, nodes: Sequence[int]) -> List[dict]:
        """Micro-batched query; same per-node payloads as :meth:`predict`."""
        body = {"nodes": [int(n) for n in nodes]}
        return self._request("POST", "/predict", body)["results"]

    def apply_delta(self, features=None, edges=None, labels=None,
                    undirected: bool = True) -> dict:
        """Stream a graph delta into the server (new nodes and/or edges).

        ``features`` is a list of new-node feature vectors, ``edges`` a
        ``[sources, destinations]`` pair (new-node ids continue from the
        server's current node count), ``labels`` the optional ground-truth
        labels of the new nodes.  Returns the server's ingestion summary
        (affected set size, new model version).
        """
        body: dict = {"undirected": bool(undirected)}
        if features is not None:
            body["features"] = [[float(v) for v in row] for row in features]
        if edges is not None:
            src, dst = edges
            body["edges"] = [[int(u) for u in src], [int(w) for w in dst]]
        if labels is not None:
            body["labels"] = [int(v) for v in labels]
        return self._request("POST", "/delta", body)

    def wait_until_ready(self, timeout: float = 30.0,
                         interval: float = 0.05) -> dict:
        """Poll ``/health`` until the server answers (startup handshake)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except (ConnectionError, OSError, http.client.HTTPException) as exc:
                last_error = exc
                self.close()
                time.sleep(interval)
        raise TimeoutError(
            f"server at {self.host}:{self.port} not ready after {timeout}s"
        ) from last_error
