"""Per-layer timing for perfbench: wrappers around ``repro``'s public functions.

Each :class:`Target` names a layer metric prefix and the binding its caller
looks the function up through.  A method is patched on its class; a function
that a module imports by name is patched in the *caller's* namespace (for
example ``bpcl_loss`` in ``repro.core.openima``), and the patch first checks
that this binding is still the function defined where the target says, so a
refactor that moves the call fails here instead of reporting 0 s.

Self time is a wrapper's duration minus the durations of the wrapped calls
nested inside it on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True)
class Target:
    """One wrapped binding.

    ``attr`` is ``"Class.method"`` or a module-level ``"function"``;
    ``defined_in`` names the module that defines a function ``module``
    imported by name.
    """

    name: str
    module: str
    attr: str
    defined_in: Optional[str] = None


TARGETS = (
    Target("gnn.gat_layer_forward", "repro.gnn.gat", "GATLayer.forward"),
    Target("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Target("nn.adam_step", "repro.nn.optim", "Adam.step"),
    Target("core.bpcl_loss", "repro.core.openima", "bpcl_loss", "repro.core.losses"),
    Target("core.pairwise_loss", "repro.core.openima", "pairwise_similarity_loss",
           "repro.core.losses"),
    Target("core.ce_loss", "repro.core.openima", "cross_entropy_loss", "repro.core.losses"),
    Target("core.pseudo_refresh", "repro.core.openima", "generate_pseudo_labels",
           "repro.core.pseudo_labels"),
    Target("clustering.refresh", "repro.clustering.engine", "ClusteringEngine.refresh"),
    Target("clustering.cluster", "repro.clustering.engine", "ClusteringEngine.cluster"),
    Target("assignment.align", "repro.core.inference", "align_clusters_to_classes",
           "repro.assignment.alignment"),
    Target("assignment.align", "repro.core.pseudo_labels", "align_clusters_to_classes",
           "repro.assignment.alignment"),
    Target("inference.embeddings", "repro.inference.engine", "InferenceEngine.embeddings"),
    Target("inference.layerwise", "repro.inference.layerwise", "LayerwiseInference.run"),
    Target("inference.partial_refresh", "repro.inference.engine",
           "InferenceEngine.refresh_after_delta"),
    Target("streaming.apply", "repro.streaming.dynamic", "DynamicGraph.apply"),
    Target("serve.query", "repro.serve.service", "PredictionService.query"),
    Target("serve.snapshot", "repro.serve.service", "PredictionService.snapshot"),
    Target("serve.apply_delta", "repro.serve.service", "PredictionService.apply_delta"),
    Target("serve.predict", "repro.serve.server", "ModelServer.predict"),
)

#: A probe runs before a wrapped call with its arguments and returns a
#: callback that receives the result (counts that need the call's inputs).
Probe = Callable[[tuple, dict], Optional[Callable[[object], None]]]


class Tracer:
    """Installs timing wrappers and accumulates calls, total and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Counters added by probes (hits, iterations, affected nodes, ...).
        self.values: Dict[str, float] = {}
        #: Per-call results kept by probes for in-process post-processing.
        self.records: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[Target] = TARGETS,
                probes: Optional[Mapping[str, Probe]] = None) -> "Tracer":
        probes = dict(default_probes(self), **(probes or {}))
        try:
            for target in targets:
                self.patch(target, probes.get(target.name))
        except (LookupError, TypeError):
            self.restore()
            raise
        return self

    def patch(self, target: Target, probe: Optional[Probe] = None) -> None:
        """Replace ``target``'s binding with a timing wrapper (fails loudly)."""
        module = importlib.import_module(target.module)
        owner_path, _, attr = target.attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        namespace = vars(owner)
        if attr not in namespace:
            raise LookupError(
                f"{target.module}.{target.attr} does not exist; the "
                f"{target.name} wrapper would time nothing")
        original = namespace[attr]
        if not callable(original):
            raise TypeError(f"{target.module}.{target.attr} is not a plain function")
        if target.defined_in is not None:
            definition = getattr(importlib.import_module(target.defined_in), attr, None)
            if original is not definition:
                raise LookupError(
                    f"{target.module}.{attr} is not {target.defined_in}.{attr}; "
                    f"callers no longer reach the function the {target.name} "
                    "wrapper is meant to time")
        setattr(owner, attr, self._wrap(target.name, original, probe))
        self._patches.append((owner, attr, original))
        for table in (self.calls, self.total_s, self.self_s):
            table.setdefault(target.name, 0)

    def restore(self) -> None:
        """Put every original binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, probe: Optional[Probe]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = probe(args, kwargs) if probe is not None else None
            stack = tracer._stack()
            frame = [0.0]  # time spent in wrapped calls nested in this one
            stack.append(frame)
            start = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += elapsed
                    tracer.self_s[name] += elapsed - frame[0]
            if done is not None:
                done(result)
            return result

        return wrapper

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key] = self.values.get(key, 0) + value

    def record(self, key: str, item) -> None:
        with self._lock:
            self.records.setdefault(key, []).append(item)

    def snapshot(self) -> dict:
        """JSON-serializable counters (records stay in process)."""
        with self._lock:
            return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                    "self_s": dict(self.self_s), "values": dict(self.values)}


def default_probes(tracer: Tracer) -> Dict[str, Probe]:
    """Probes whose counts need only the wrapped call's own arguments/result."""

    def embeddings(args, kwargs):
        engine, before = args[0], args[0].forward_count
        return lambda result: tracer.add(
            "inference.embeddings.hits", int(engine.forward_count == before))

    def partial_refresh(args, kwargs):
        engine, before = args[0], args[0].partial_refresh_count
        return lambda result: tracer.add(
            "inference.partial_refresh.partial", engine.partial_refresh_count - before)

    def pseudo_refresh(args, kwargs):
        def done(result):
            tracer.add("core.pseudo_selected", result.num_selected)
            tracer.record("core.pseudo_refresh", (result.node_indices, result.labels))
        return done

    return {
        "inference.embeddings": embeddings,
        "inference.partial_refresh": partial_refresh,
        "core.pseudo_refresh": pseudo_refresh,
        "clustering.refresh": lambda args, kwargs: (
            lambda outcome: tracer.add("clustering.refresh.iterations",
                                       outcome.result.n_iter)),
        "streaming.apply": lambda args, kwargs: (
            lambda report: tracer.add("streaming.affected_nodes", report.num_affected)),
    }


def layer_metrics(snapshot: dict) -> Dict[str, float]:
    """Per-layer metrics derived from a :meth:`Tracer.snapshot` alone."""
    calls, self_s, values = snapshot["calls"], snapshot["self_s"], snapshot["values"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {f"{name}.self_s": seconds for name, seconds in self_s.items()
               if name != "serve.predict"}
    for name in ("gnn.gat_layer_forward", "core.pseudo_refresh",
                 "clustering.refresh", "assignment.align"):
        metrics[f"{name}.calls"] = calls[name]
    metrics["clustering.refresh.iterations"] = values.get("clustering.refresh.iterations", 0)
    metrics["core.pseudo_selected"] = ratio(values.get("core.pseudo_selected", 0),
                                            calls["core.pseudo_refresh"])
    metrics["inference.embeddings.hit_ratio"] = ratio(
        values.get("inference.embeddings.hits", 0), calls["inference.embeddings"])
    metrics["inference.partial_ratio"] = ratio(
        values.get("inference.partial_refresh.partial", 0),
        calls["inference.partial_refresh"])
    metrics["streaming.affected_nodes"] = ratio(
        values.get("streaming.affected_nodes", 0), calls["streaming.apply"])
    # A request thread waits in ModelServer.predict while the coalescer
    # worker runs PredictionService.query for its batch.
    metrics["serve.coalesce_wait_s"] = (snapshot["total_s"]["serve.predict"]
                                        - snapshot["total_s"]["serve.query"])
    return metrics
