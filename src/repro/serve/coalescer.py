"""Micro-batching of concurrent prediction requests.

:class:`RequestCoalescer` funnels requests from many transport threads into
one worker.  The worker dispatches as soon as it is free: it takes whatever
is queued (up to ``max_batch`` nodes) and answers it with **one** call to
the batch function (one snapshot access — and at most one encoder pass —
instead of one per request).  Nothing waits for stragglers; requests that
arrive while a batch runs share the next call, so concurrent load still
coalesces and an idle server answers at once.  Results are split back per
request, so callers cannot observe whether they were batched: the service
guarantees a coalesced micro-batch is bit-for-bit identical to independent
single-node queries.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, List, Sequence

from ..obs import REGISTRY

_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_serve_coalescer_queue_depth",
    "Requests waiting in the coalescer for the next batch.")
_BATCHES = REGISTRY.counter(
    "repro_serve_coalescer_batches_total",
    "Micro-batches executed by the coalescer worker.")
_BATCH_REQUESTS = REGISTRY.histogram(
    "repro_serve_coalescer_batch_requests",
    "Requests coalesced into each executed batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))


class _Pending:
    __slots__ = ("nodes", "future")

    def __init__(self, nodes: List[int]):
        self.nodes = nodes
        self.future: Future = Future()


class RequestCoalescer:
    """Answer everything queued by one model call whenever the worker is free.

    Parameters
    ----------
    batch_fn:
        Called with the concatenated node ids of every request in the batch;
        must return one result per node, in order.
    max_batch:
        Upper bound on nodes per batch; requests beyond it stay queued for
        the next batch.
    """

    def __init__(
        self,
        batch_fn: Callable[[List[int]], List[dict]],
        max_batch: int = 1024,
    ):
        self._batch_fn = batch_fn
        self.max_batch = int(max_batch)
        self._pending: Deque[_Pending] = deque()  # guarded-by: _wakeup
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stop = False  # guarded-by: _wakeup
        self._worker: threading.Thread = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True)
        self._started = False
        # Counters (read for /stats; single-writer from the worker thread).
        self.batches = 0
        self.requests = 0
        self.coalesced_requests = 0
        self.max_batch_seen = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RequestCoalescer":
        if not self._started:
            self._started = True
            self._worker.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain outstanding requests, then stop the worker."""
        with self._wakeup:
            self._stop = True
            self._wakeup.notify_all()
        if self._started:
            self._worker.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, nodes: Sequence[int]) -> Future:
        """Enqueue a request; the Future resolves to one result per node."""
        pending = _Pending([int(n) for n in nodes])
        with self._wakeup:
            if self._stop:
                raise RuntimeError("coalescer is stopped")
            self._pending.append(pending)
            self._wakeup.notify_all()
        # Metric updates stay outside _wakeup: obs instrument locks are
        # leaves and must never nest under component locks.
        _QUEUE_DEPTH.inc()
        return pending.future

    def predict(self, nodes: Sequence[int], timeout: float = 30.0) -> List[dict]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(nodes).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _take_batch(self) -> List[_Pending]:
        """Block until work or a stop, then take up to max_batch nodes.

        Returns an empty list only once stopped with nothing queued.
        """
        with self._wakeup:
            while not self._pending and not self._stop:
                self._wakeup.wait()
            batch: List[_Pending] = []
            size = 0
            while self._pending and size + len(self._pending[0].nodes) <= self.max_batch:
                pending = self._pending.popleft()
                batch.append(pending)
                size += len(pending.nodes)
            if not batch and self._pending:
                # A single oversized request: take it alone rather than stall.
                batch.append(self._pending.popleft())
        if batch:
            _QUEUE_DEPTH.dec(len(batch))
        return batch

    def _run(self) -> None:
        while batch := self._take_batch():
            self._execute(batch)

    def _execute(self, batch: List[_Pending]) -> None:
        nodes: List[int] = []
        for pending in batch:
            nodes.extend(pending.nodes)
        self.batches += 1
        self.requests += len(batch)
        if len(batch) > 1:
            self.coalesced_requests += len(batch)
        self.max_batch_seen = max(self.max_batch_seen, len(nodes))
        _BATCHES.inc()
        _BATCH_REQUESTS.observe(len(batch))
        try:
            results = self._batch_fn(nodes)
            if len(results) != len(nodes):
                raise RuntimeError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(nodes)} nodes")
        except BaseException as exc:  # propagate per request, keep serving
            for pending in batch:
                pending.future.set_exception(exc)
            return
        offset = 0
        for pending in batch:
            pending.future.set_result(results[offset:offset + len(pending.nodes)])
            offset += len(pending.nodes)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_nodes": self.max_batch_seen,
            "mean_requests_per_batch": (
                self.requests / self.batches if self.batches else 0.0),
        }
