"""Prequential stream replay: test-then-learn over a :class:`StreamScenario`.

:class:`StreamRunner` drives a *fitted* model through a scenario's event
sequence.  Each step follows the prequential (test-then-learn) protocol:

1. **Ingest** — the event's delta is applied through a
   :class:`~repro.streaming.dynamic.DynamicGraph`, which reports the k-hop
   affected set, and the inference engine patches only that receptive field
   (:meth:`~repro.inference.engine.InferenceEngine.refresh_after_delta`).
2. **Test** — the arrivals are assigned to the *current* centroids and scored
   against their ground-truth labels before the model sees them: seen-class
   arrivals must be predicted as their exact class; arrivals outside the seen
   set (including withheld classes the model has never observed) are correct
   when flagged as any novel id.
3. **Learn** — the clustering engine refreshes on the grown embedding matrix
   (online strategies update centroids in a streaming pass; a configured
   ``birth_threshold`` may spawn a new cluster for an emerging class), the
   labeled set grows by the event's revealed labels, and the
   cluster-to-class alignment is recomputed.

The runner never backpropagates: the encoder is frozen, which isolates the
streaming protocol's own machinery (incremental inference, cluster birth,
alignment drift) from confounding parameter drift — and matches the paper's
deployment story of a trained model serving an evolving graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..assignment.alignment import ClusterAlignment, align_clusters_to_classes
from ..clustering.kmeans import _assign_labels
from ..obs import REGISTRY, span
from ..obs.clock import monotonic as _monotonic
from .dynamic import DynamicGraph
from .metrics import PrequentialAccuracy, detection_delay
from .scenario import StreamScenario

_STEPS = REGISTRY.counter(
    "repro_stream_steps_total",
    "Stream events processed by the prequential runner.")
_STEP_SECONDS = REGISTRY.histogram(
    "repro_stream_step_seconds",
    "Wall time of one prequential step, by stage (refresh vs cluster).",
    labelnames=("stage",))
_PREQUENTIAL = REGISTRY.gauge(
    "repro_stream_prequential_accuracy",
    "Running prequential accuracy after the latest step, by arrival kind.",
    labelnames=("kind",))
_CLUSTERS = REGISTRY.gauge(
    "repro_stream_clusters",
    "Clusters carried by the runner after the latest step.")


@dataclass
class StepRecord:
    """Everything observed while processing one stream event."""

    step: int
    num_arrivals: int
    num_new_edges: int
    num_affected: int
    affected_fraction: float
    partial: bool
    refresh_seconds: float
    cluster_seconds: float
    births: tuple
    num_clusters: int
    accuracy: dict

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "num_arrivals": self.num_arrivals,
            "num_new_edges": self.num_new_edges,
            "num_affected": self.num_affected,
            "affected_fraction": round(self.affected_fraction, 4),
            "partial": self.partial,
            "refresh_seconds": round(self.refresh_seconds, 6),
            "cluster_seconds": round(self.cluster_seconds, 6),
            "births": list(self.births),
            "num_clusters": self.num_clusters,
            "accuracy": self.accuracy,
        }


@dataclass
class StreamResult:
    """Outcome of a full scenario replay."""

    scenario_name: str
    records: List[StepRecord]
    accuracy: PrequentialAccuracy
    first_withheld_step: Optional[int]
    first_birth_step: Optional[int]
    num_clusters_start: int
    num_clusters_end: int
    metadata: dict = field(default_factory=dict)

    @property
    def detection_delay(self) -> Optional[int]:
        return detection_delay(self.first_withheld_step, self.first_birth_step)

    def summary(self) -> dict:
        partial_steps = sum(1 for r in self.records if r.partial)
        return {
            "scenario": self.scenario_name,
            "num_steps": len(self.records),
            "prequential": self.accuracy.as_dict(),
            "first_withheld_step": self.first_withheld_step,
            "first_birth_step": self.first_birth_step,
            "detection_delay": self.detection_delay,
            "num_clusters_start": self.num_clusters_start,
            "num_clusters_end": self.num_clusters_end,
            "partial_refresh_steps": partial_steps,
            "full_refresh_steps": len(self.records) - partial_steps,
            "mean_refresh_seconds": (
                float(np.mean([r.refresh_seconds for r in self.records]))
                if self.records else 0.0
            ),
            "mean_affected_fraction": (
                float(np.mean([r.affected_fraction for r in self.records]))
                if self.records else 0.0
            ),
        }

    def describe(self) -> dict:
        report = self.summary()
        report["steps"] = [r.as_dict() for r in self.records]
        report["metadata"] = dict(self.metadata)
        return report


class StreamRunner:
    """Replay a scenario through a fitted model, step by step.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.api.classifier.OpenWorldClassifier` (or its
        :class:`~repro.core.trainer.GraphTrainer`) whose dataset **is** the
        scenario's base dataset — the runner mutates that graph in place.
    scenario:
        The event sequence to replay.
    """

    def __init__(self, model, scenario: StreamScenario):
        trainer = getattr(model, "trainer_", model)
        if trainer is None:
            raise ValueError("the model must be fitted before streaming")
        if trainer.dataset.graph is not scenario.base.graph:
            raise ValueError(
                "the model was not fitted on this scenario's base graph; "
                "fit on scenario.base so stream ids line up")
        self.trainer = trainer
        self.scenario = scenario
        depth = getattr(trainer.encoder, "num_message_passing_layers", 2)
        self.dynamic = DynamicGraph(trainer.dataset.graph, num_hops=int(depth))
        self.accuracy = PrequentialAccuracy()
        self.records: List[StepRecord] = []
        self._next_event = 0
        self._first_birth_step: Optional[int] = None
        self._seen_classes = np.asarray(
            trainer.dataset.split.seen_classes, dtype=np.int64)
        # Labeled nodes available for alignment: the base train/val nodes,
        # grown by every revealed arrival.  All carry seen-class labels
        # (the scenario never reveals novel arrivals).
        split = trainer.dataset.split
        self._labeled = np.unique(
            np.concatenate([split.train_nodes, split.val_nodes]))
        self._alignment: Optional[ClusterAlignment] = None
        self._centers: Optional[np.ndarray] = None
        self._fit_base_clustering()
        self._clusters_start = int(self._centers.shape[0])

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _fit_base_clustering(self) -> None:
        """Fit the carried clustering + alignment on the base graph."""
        trainer = self.trainer
        embeddings = trainer.node_embeddings()
        outcome = trainer.clustering_engine.refresh(
            embeddings, trainer.label_space.num_total, allow_birth=True)
        self._publish(outcome.result)

    def _publish(self, result) -> None:
        """Adopt a clustering: keep its centers, realign clusters to classes."""
        self._centers = np.asarray(result.centers, dtype=np.float64)
        graph = self.trainer.dataset.graph
        labeled = self._labeled
        self._alignment = align_clusters_to_classes(
            result.labels[labeled],
            graph.labels[labeled],
            num_clusters=int(result.centers.shape[0]),
            known_classes=self._seen_classes,
        )

    # ------------------------------------------------------------------
    # Stream replay
    # ------------------------------------------------------------------
    def step(self) -> StepRecord:
        """Process the next event (ingest -> test -> learn)."""
        if self._next_event >= len(self.scenario.events):
            raise IndexError("the scenario's event stream is exhausted")
        with span("stream.step", step=self._next_event):
            return self._step_inner()

    def _step_inner(self) -> StepRecord:
        event = self.scenario.events[self._next_event]
        self._next_event += 1
        trainer = self.trainer
        engine = trainer.inference_engine
        graph = trainer.dataset.graph

        # Ingest: mutate the graph, patch only the affected receptive field.
        report = self.dynamic.apply(event.delta)
        partial_before = engine.partial_refresh_count
        start = _monotonic()
        embeddings = engine.refresh_after_delta(trainer.encoder, graph, report)
        refresh_seconds = _monotonic() - start
        partial = engine.partial_refresh_count > partial_before

        # Test: score the arrivals against the pre-update clustering.
        seen_mask = np.isin(event.labels, self._seen_classes)
        if event.num_arrivals:
            assignments, _ = _assign_labels(
                embeddings[event.node_ids], self._centers)
            predicted = self._alignment.apply(assignments)
            predicted_seen = np.isin(predicted, self._seen_classes)
            # A seen-class arrival must hit its exact class; any non-seen
            # arrival (novel or withheld) is correct when flagged as novel —
            # synthetic novel ids from the alignment are not comparable to
            # ground-truth novel ids, membership outside the seen set is.
            correct = np.where(seen_mask,
                               predicted == event.labels,
                               ~predicted_seen)
        else:
            correct = np.zeros(0, dtype=bool)
        snapshot = self.accuracy.update(correct, seen_mask, step=event.step)

        # Learn: reveal labels, refresh the clustering, realign.
        if event.revealed.any():
            self._labeled = np.unique(np.concatenate(
                [self._labeled, event.node_ids[event.revealed]]))
        start = _monotonic()
        outcome = trainer.clustering_engine.refresh(
            embeddings, trainer.label_space.num_total, allow_birth=True)
        cluster_seconds = _monotonic() - start
        self._publish(outcome.result)
        if outcome.births and self._first_birth_step is None:
            self._first_birth_step = event.step

        # Publish the step as a time series: counters/histograms accumulate
        # per step, gauges track the latest prequential state.
        _STEPS.inc()
        _STEP_SECONDS.observe(refresh_seconds, stage="refresh")
        _STEP_SECONDS.observe(cluster_seconds, stage="cluster")
        for kind in ("overall", "seen", "novel"):
            value = snapshot.get(kind)
            if value is not None:
                _PREQUENTIAL.set(float(value), kind=kind)
        _CLUSTERS.set(float(outcome.result.centers.shape[0]))

        record = StepRecord(
            step=event.step,
            num_arrivals=event.num_arrivals,
            num_new_edges=report.num_new_edges,
            num_affected=report.num_affected,
            affected_fraction=report.affected_fraction,
            partial=partial,
            refresh_seconds=refresh_seconds,
            cluster_seconds=cluster_seconds,
            births=tuple(outcome.births),
            num_clusters=int(outcome.result.centers.shape[0]),
            accuracy=snapshot,
        )
        self.records.append(record)
        return record

    def run(self) -> StreamResult:
        """Replay every remaining event and summarize."""
        while self._next_event < len(self.scenario.events):
            self.step()
        return self.result()

    def result(self) -> StreamResult:
        """The replay outcome so far."""
        return StreamResult(
            scenario_name=self.scenario.name,
            records=list(self.records),
            accuracy=self.accuracy,
            first_withheld_step=self.scenario.first_withheld_step(),
            first_birth_step=self._first_birth_step,
            num_clusters_start=self._clusters_start,
            num_clusters_end=int(self._centers.shape[0]),
            metadata=dict(self.scenario.metadata),
        )
