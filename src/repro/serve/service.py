"""Model-state ownership for the serving layer.

The split that makes a long-lived server safe on this codebase:

* **Single writer** — all model compute (encoder passes, clustering,
  head logits) happens under one lock, in a snapshot build.  The lock
  serializes the writers of the live graph, the embedding cache and the
  published snapshot (:meth:`PredictionService.apply_delta`), and makes
  concurrent cold starts build once.
* **Many readers** — the result of that pass is published as an immutable
  :class:`ServingSnapshot` (read-only arrays, atomically swapped
  reference).  Answering a query is pure numpy slicing against the
  snapshot; any number of request threads can do it concurrently without
  touching the model, and none waits for a writer: while one holds the
  lock, readers keep the last published snapshot.

Because every query against one snapshot reads from the same full-graph
:class:`~repro.core.inference.InferenceResult`, a coalesced micro-batch is
*bit-for-bit* identical to N independent single-node queries — batching is
purely a throughput decision.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..api.classifier import OpenWorldClassifier
from ..core.inference import InferenceResult
from ..obs import REGISTRY, span

_SNAPSHOT_BUILDS = REGISTRY.counter(
    "repro_serve_snapshot_builds_total",
    "Full prediction-snapshot rebuilds (== distinct versions served).")
_DELTAS_APPLIED = REGISTRY.counter(
    "repro_serve_deltas_applied_total",
    "Graph deltas ingested through the serving layer.")
_SNAPSHOT_BUILD_SECONDS = REGISTRY.histogram(
    "repro_serve_snapshot_build_seconds",
    "Wall time of one full snapshot rebuild (encoder + cluster + logits).")


@dataclass(frozen=True)
class ServingSnapshot:
    """Immutable, fully materialized prediction state for one model version.

    Everything a query needs is precomputed: per-node class predictions
    (original seen ids / synthetic novel ids), the raw K-Means cluster
    assignment, and the head logits restricted to the seen (known) classes.
    All arrays are read-only; readers slice, never mutate.
    """

    method: str
    dataset: str
    param_counter: int
    graph_version: int
    num_nodes: int
    seen_classes: np.ndarray
    predictions: np.ndarray
    cluster_labels: np.ndarray
    known_logits: np.ndarray
    novel_offset: int
    result: InferenceResult = field(repr=False)
    embeddings: np.ndarray = field(repr=False, default=None)

    @property
    def version(self) -> dict:
        return {"param_counter": self.param_counter,
                "graph_version": self.graph_version}

    def query(self, nodes: Sequence[int]) -> List[dict]:
        """Per-node prediction payloads for ``nodes`` (validated ids).

        An id is an integer (numpy integers included) that is not a
        ``bool``; anything else (``2.7``, ``True``, ``"5"``) raises
        ``TypeError`` before any node is looked up.
        """
        nodes = list(nodes)
        for raw in nodes:
            if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
                raise TypeError(f"node ids must be integers, got {raw!r}")
        payloads = []
        for raw in nodes:
            node = int(raw)
            if not 0 <= node < self.num_nodes:
                raise IndexError(
                    f"node id {node} out of range [0, {self.num_nodes})")
            prediction = int(self.predictions[node])
            # Novel predictions are synthetic ids starting one past the
            # largest seen class id (LabelSpace.to_original).
            is_novel = prediction >= self.novel_offset
            payloads.append({
                "node": node,
                "prediction": prediction,
                "is_novel": is_novel,
                "novel_cluster": int(self.cluster_labels[node]) if is_novel else None,
                "cluster": int(self.cluster_labels[node]),
                "known_logits": [float(v) for v in self.known_logits[node]],
            })
        return payloads


class PredictionService:
    """Owns a fitted :class:`OpenWorldClassifier` and serves query snapshots.

    The service is the single writer of model state: snapshot builds are
    serialized by a lock, and the published snapshot is swapped atomically
    so readers always see a complete, consistent version.  Repeated queries
    against unchanged parameters cost zero encoder passes — the underlying
    :class:`~repro.inference.EmbeddingCache` stays warm and the snapshot is
    reused until the parameter or graph version moves.
    """

    def __init__(self, classifier: OpenWorldClassifier):
        self.classifier = classifier
        self._trainer = classifier._require_fitted()
        self._lock = threading.Lock()
        self._snapshot: Optional[ServingSnapshot] = None
        #: Full prediction rebuilds performed (== distinct versions served).
        self.snapshot_builds = 0
        #: Graph deltas ingested through apply_delta.
        self.deltas_applied = 0
        self._dynamic = None  # guarded-by: _lock (lazy DynamicGraph wrapper)

    # ------------------------------------------------------------------
    # Snapshot lifecycle (single writer)
    # ------------------------------------------------------------------
    def _current_version(self) -> tuple:
        return (self._trainer.encoder.parameter_version(),
                getattr(self._trainer.dataset.graph, "cache_version", 0))

    def _is_current(self, snapshot: Optional[ServingSnapshot]) -> bool:
        if snapshot is None:
            return False
        param, graph = self._current_version()
        if snapshot.param_counter != param or snapshot.graph_version != graph:
            return False
        # The embedding cache is the source of truth for staleness: a warm
        # repeat query is an explicit cache hit (counted), and an entry
        # that was invalidated or replaced behind our back forces a rebuild
        # instead of serving from a snapshot the cache no longer backs.
        cache = self._trainer.inference_engine.cache
        return cache.lookup(self._trainer.encoder,
                            self._trainer.dataset.graph) is snapshot.embeddings

    def snapshot(self) -> ServingSnapshot:
        """The published snapshot, rebuilt first if stale and no writer runs.

        A reader never waits for a writer: while another thread holds the
        lock (an :meth:`apply_delta`, or a build), a stale snapshot is
        returned as it is, and the writer publishes the next one.  Only
        when nothing has been published yet does the reader wait, so
        concurrent cold starts build once.
        """
        snapshot = self._snapshot
        if self._is_current(snapshot):
            return snapshot
        if not self._lock.acquire(blocking=snapshot is None):
            return snapshot
        try:
            snapshot = self._snapshot
            if self._is_current(snapshot):
                # Another thread published it since the check above.
                return snapshot
            snapshot = self._build_snapshot()
            self._snapshot = snapshot
            return snapshot
        finally:
            self._lock.release()

    def _build_snapshot(self) -> ServingSnapshot:
        with _SNAPSHOT_BUILD_SECONDS.time(), \
                span("serve.snapshot_build"):
            return self._build_snapshot_inner()

    def _build_snapshot_inner(self) -> ServingSnapshot:  # returns-frozen
        trainer = self._trainer
        param_counter, graph_version = self._current_version()
        embeddings = trainer.node_embeddings()
        result = trainer.predict(embeddings=embeddings)
        logits = trainer.head_logits(embeddings=embeddings)
        label_space = result.label_space
        known_logits = np.ascontiguousarray(logits[:, :label_space.num_seen])
        known_logits.setflags(write=False)
        # Honor the ServingSnapshot contract ("all arrays are read-only"):
        # predictions/cluster_labels are fresh per-build arrays, frozen in
        # place; seen_classes is shared with the LabelSpace, so freeze a copy.
        predictions = np.asarray(result.predictions)
        predictions.setflags(write=False)
        cluster_labels = np.asarray(result.cluster_result.labels)
        cluster_labels.setflags(write=False)
        seen_classes = label_space.seen_classes.copy()
        seen_classes.setflags(write=False)
        self.snapshot_builds += 1
        _SNAPSHOT_BUILDS.inc()
        return ServingSnapshot(
            method=self.classifier.method,
            dataset=getattr(self.classifier.dataset_, "name", "?"),
            param_counter=param_counter,
            graph_version=graph_version,
            num_nodes=int(trainer.dataset.graph.num_nodes),
            seen_classes=seen_classes,
            predictions=predictions,
            cluster_labels=cluster_labels,
            known_logits=known_logits,
            novel_offset=int(label_space.seen_classes.max()) + 1,
            result=result,
            embeddings=embeddings,
        )

    def warm(self) -> ServingSnapshot:
        """Build the snapshot (and the embedding cache) before serving traffic."""
        return self.snapshot()

    # ------------------------------------------------------------------
    # Streaming ingestion (single writer)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> dict:
        """Ingest a :class:`~repro.graphs.delta.GraphDelta` and republish.

        Runs entirely under the writer lock: the live graph is mutated
        through a :class:`~repro.streaming.DynamicGraph` wrapper (kept
        across calls so its CSR/degree state is maintained incrementally),
        the embedding cache is patched over the delta's affected receptive
        field instead of cold-rebuilt
        (:meth:`~repro.inference.engine.InferenceEngine.refresh_after_delta`),
        and a fresh snapshot is swapped in before the lock is released.
        Readers are never exposed to a half-applied delta, and never wait
        for it: :meth:`snapshot` returns the previous immutable snapshot
        until the swap, so a node the delta adds is out of range
        (``IndexError``) until then.
        """
        # Imported lazily: repro.streaming builds on repro.inference, which
        # this package already imports at module level.
        from ..streaming import DynamicGraph

        trainer = self._trainer
        with self._lock:
            if self._dynamic is None or self._dynamic.graph is not trainer.dataset.graph:
                depth = getattr(trainer.encoder, "num_message_passing_layers", 2)
                self._dynamic = DynamicGraph(trainer.dataset.graph,
                                             num_hops=int(depth))
            report = self._dynamic.apply(delta)
            trainer.inference_engine.refresh_after_delta(
                trainer.encoder, trainer.dataset.graph, report)
            self.deltas_applied += 1
            _DELTAS_APPLIED.inc()
            snapshot = self._build_snapshot()
            self._snapshot = snapshot
        summary = report.describe()
        summary["model_version"] = snapshot.version
        summary["deltas_applied"] = self.deltas_applied
        return summary

    # ------------------------------------------------------------------
    # Query surface (many readers)
    # ------------------------------------------------------------------
    def query(self, nodes: Sequence[int]) -> List[dict]:
        """Predictions for ``nodes``; identical whether batched or one-by-one."""
        return self.snapshot().query(nodes)

    def query_one(self, node: int) -> dict:
        return self.query([node])[0]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A point-in-time copy of the service counters.

        The returned dict (including every nested dict) is freshly built
        per call — callers may mutate it freely without corrupting the
        service's own state or later ``stats()`` results.
        """
        engine = self._trainer.inference_engine
        return copy.deepcopy({
            "snapshot_builds": self.snapshot_builds,
            "encoder_forwards": engine.forward_count,
            "embedding_cache": engine.cache.stats(),
            "deltas_applied": self.deltas_applied,
            "partial_refreshes": engine.partial_refresh_count,
            "full_refreshes": engine.full_refresh_count,
            "model_version": (self._snapshot.version
                              if self._snapshot is not None else None),
        })

    def info(self) -> dict:
        snapshot = self.snapshot()
        return {
            "method": snapshot.method,
            "dataset": snapshot.dataset,
            "num_nodes": snapshot.num_nodes,
            "seen_classes": [int(c) for c in snapshot.seen_classes],
            "model_version": snapshot.version,
        }
