"""The four perfbench workloads.

Every workload derives its inputs from the seed alone, measures with
tracing off, and checks the program's outputs.  The gated end-to-end
metrics have one meaning per workload (see ``metrics.json``):

============== ========================= ========================== =============
workload       main_ms                   aux_ms                     peak_rss_mb
============== ========================= ========================== =============
train          ``fit`` (mean)            cold ``evaluate`` (mean)   this process
predict_large  cold ``evaluate`` (mean)  warm ``evaluate`` (mean)   this process
serve_read     read, 20 qps (median)     read, 30 qps (median)      server
serve_mixed    ``POST /delta`` (median)  read under deltas (tail)   server
============== ========================= ========================== =============

``setup_s`` is the mean (in process) or median (server starts) of the
workload's set-ups, taken at several points of the run.  CPU-bound timings
(all but served latencies) are in seconds at the reference CPU speed
(``calibration.py``).  Served latencies are timed from each request's due
time.

A traced run repeats the measurement with :mod:`tracer`'s wrappers
installed (in this process, or in the server through ``serve_launcher.py``)
and reports per-layer metrics plus the tracing overhead on ``main_ms``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

import loadgen
import stats
import tracer as tracing
from calibration import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent

PROFILE = "ogbn-products"
#: 1,750 nodes / ~33k directed edges: the CLI's ``repro run`` default scale.
TRAIN_SCALE = 0.35
#: 33,000 nodes: above InferenceConfig.auto_threshold, so ``auto`` is layer-wise.
LARGE_SCALE = 6.6
#: Three epochs run the pseudo-label refresh twice (after one warm-up epoch).
TRAIN_EPOCHS = 3
CHECKPOINT_EPOCHS = 1
BATCH_SIZE = 384
COLD_PREDICTS_PER_EPOCH = 2
WARM_PREDICTS_PER_COLD = 3

#: At most one keep-alive connection (and generator thread) per usable core.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
#: Reads per second at the nominal step.  With two connections each one sees
#: a request every 100 ms.
NOMINAL_QPS = 20.0
#: The serve_read ladder above the nominal step.  The server writes a
#: response's headers and body separately, so once a connection's requests
#: come close together each response waits ~45 ms for a delayed ACK, and two
#: connections top out near 44 qps whatever the server does.  At 40 qps
#: (a request every 50 ms per connection) reads already sat in that stall
#: (median 53 ms); at 30 qps (every 67 ms) they did not (median 5 ms).
LADDER_QPS = (25.0, 30.0)
#: Shares of a serve_read run: the nominal step, then each ladder step.
STEP_SHARES = (0.7, 0.15, 0.15)
LATENCY_LIMIT_S = 0.100
#: A step whose last third is this much slower than its first third has a
#: growing backlog.
BACKLOG_GROWTH_S = 0.050
REQUEST_TIMEOUT_S = 5.0
#: Deltas per second; one delta holds the writer lock for ~0.2-0.3 s.
DELTA_QPS = 1.0
DELTA_NODES = 2
PARITY_NODES = 32


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    calibration: Calibration = field(default_factory=Calibration)

    def timed(self, fn: Callable, after: bool = True):
        """Time a CPU-bound call in seconds at the reference CPU speed.

        The speed is sampled right before and, with ``after``, right after
        the call (see calibration.py).  A call that leaves another process
        busy, such as a server that has just started, passes
        ``after=False``: that process would slow the second sample.
        """
        speeds = [self.calibration.sample()]
        start = time.perf_counter()
        value = fn()
        took = time.perf_counter() - start
        if after:
            speeds.append(self.calibration.sample())
        return took * REFERENCE_S / (sum(speeds) / len(speeds)), value


@dataclass
class Result:
    e2e: Dict[str, float]
    report: dict
    attempted: int
    failed: int
    checks: Dict[str, bool]
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wrapped-call counts backing the per-layer nonzero checks.
    calls: Dict[str, int] = field(default_factory=dict)


def _repeat(budget_s: float, op: Callable, minimum: int = 2) -> list:
    """Run ``op`` until ``budget_s`` has passed (``minimum`` runs at least)."""
    results, start = [], time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start < budget_s:
        gc.collect()
        results.append(op())
    return results


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _config(seed: int, epochs: int):
    from repro.core.config import fast_config

    # The CLI's GAT configuration (`repro run --encoder gat`).
    return fast_config(max_epochs=epochs, seed=seed, encoder_kind="gat",
                       batch_size=BATCH_SIZE)


def _accuracy(acc) -> dict:
    return {"acc_all": acc.overall, "acc_seen": acc.seen, "acc_novel": acc.novel}


def _finite(values: dict) -> bool:
    return all(math.isfinite(v) for v in values.values())


def _overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class _Cycle:
    """One repetition of an in-process workload: set-up, main and aux timings."""

    setup: List[float]
    main: float
    aux: List[float]
    accuracy: Dict[str, float]
    checks: Dict[str, bool]


def _in_process(ctx: Context, cycle: Callable[[], _Cycle], names: tuple,
                extra: Callable[[tracing.Tracer], Dict[str, float]]) -> Result:
    """Repeat ``cycle`` for the run's budget, or trace one cycle.

    Set-up is timed inside every cycle, so its samples spread over the run
    like the others.  ``names`` are the report names of the main and aux
    timings.
    """
    if ctx.trace:
        return _traced_in_process(cycle, extra)
    cycles = _repeat(ctx.seconds, cycle)
    setup = stats.summarize([s for c in cycles for s in c.setup])
    main = stats.summarize([c.main for c in cycles])
    aux = stats.summarize([a for c in cycles for a in c.aux])
    accuracy = cycles[-1].accuracy
    checks = {"acc_finite": _finite(accuracy),
              # Same seed, same inputs: every repetition lands on the same accuracy.
              "acc_deterministic": all(c.accuracy == accuracy for c in cycles)}
    for name in cycles[-1].checks:
        checks[name] = all(c.checks[name] for c in cycles)
    # Means, not medians: the samples are CPU-bound and spread over the run,
    # and where the CPU speed alternates between two levels in phases of
    # seconds, the median of such samples jumps between the levels while
    # their mean moves less.
    e2e = {"setup_s": setup["mean"], "main_ms": 1000 * main["mean"],
           "aux_ms": 1000 * aux["mean"], "peak_rss_mb": _peak_rss_mb()}
    report = {"setup_s": setup, names[0]: main, names[1]: aux, **accuracy,
              "peak_rss_mb": e2e["peak_rss_mb"],
              "cpu_speed_factor": ctx.calibration.factor}
    return Result(e2e, report, attempted=main["n"] + aux["n"], failed=0, checks=checks)


def _traced_in_process(cycle: Callable[[], _Cycle],
                       extra: Callable[[tracing.Tracer], Dict[str, float]]) -> Result:
    """A warm-up, an untraced and a traced cycle; per-layer metrics of the traced one."""
    cycle()
    gc.collect()
    untraced = cycle()
    gc.collect()
    with tracing.Tracer().install() as tracer:
        traced = cycle()
    snapshot = tracer.snapshot()
    layers = tracing.layer_metrics(snapshot)
    layers.update(extra(tracer))
    layers.update({f"metrics.{name}": value for name, value in traced.accuracy.items()})
    layers["trace.overhead_pct"] = _overhead_pct(traced.main, untraced.main)
    report = {"untraced_main_s": untraced.main, "traced_main_s": traced.main,
              **traced.accuracy}
    checks = {"acc_finite": _finite(traced.accuracy), **traced.checks}
    return Result({}, report, attempted=3, failed=0, checks=checks,
                  layers=layers, calls=snapshot["calls"])


def train(ctx: Context) -> Result:
    """GAT OpenIMA ``fit`` on products@0.35, then cold all-node predicts."""
    from repro.api import OpenWorldClassifier
    from repro.datasets.synthetic import load_open_world_dataset

    last = {}

    def build():
        # A fresh dataset per fit: graph-level caches are part of what fit pays.
        dataset = load_open_world_dataset(PROFILE, seed=ctx.seed, scale=TRAIN_SCALE)
        classifier = OpenWorldClassifier("openima", config=_config(ctx.seed, TRAIN_EPOCHS))
        return classifier.fit(dataset, max_epochs=0)

    def cycle() -> _Cycle:
        setup_s, classifier = ctx.timed(build)
        setup, fit_s, predicts = [setup_s], 0.0, []
        for epoch in range(1, TRAIN_EPOCHS + 1):
            took, _ = ctx.timed(lambda: classifier.fit(max_epochs=epoch))
            fit_s += took
            # Between epochs, cold evaluates (as `repro run --eval-every 1`)
            # and another set-up, so their samples spread over the run like
            # the fit's.  Dropping the cache again leaves the next epoch's
            # work (and its weights, bit for bit) as in an uninterrupted fit.
            for _ in range(COLD_PREDICTS_PER_EPOCH):
                classifier.inference_engine.invalidate()
                took, accuracy = ctx.timed(classifier.evaluate)
                predicts.append(took)
            classifier.inference_engine.invalidate()
            setup.append(ctx.timed(build)[0])
        if ctx.trace:
            # Only the traced run reads it; kept in an untraced run, it would
            # add a second classifier to the peak RSS.
            last["classifier"] = classifier
        return _Cycle(setup, fit_s, predicts, _accuracy(accuracy), {})

    def layers(tracer: tracing.Tracer) -> Dict[str, float]:
        """Pseudo-label precision and variance imbalance of the traced fit."""
        from repro.metrics.variance import variance_imbalance_report

        classifier = last["classifier"]
        trainer = classifier.trainer_
        dataset, label_space = trainer.dataset, trainer.label_space
        matched = selected = 0
        for nodes, labels in tracer.records.get("core.pseudo_refresh", []):
            seen = labels < label_space.num_seen
            truth = dataset.labels[nodes[seen]]
            matched += int((label_space.seen_classes[labels[seen]] == truth).sum())
            selected += int(seen.sum())
        split = dataset.split
        imbalance, _ = variance_imbalance_report(
            classifier.embed()[split.test_nodes], dataset.labels[split.test_nodes],
            split.seen_classes, split.novel_classes)
        return {"core.pseudo_precision": matched / selected if selected else 0.0,
                "metrics.variance_imbalance": imbalance}

    return _in_process(ctx, cycle, ("fit_s", "predict_s"), layers)


def predict_large(ctx: Context) -> Result:
    """Cold layer-wise predict of an untrained GAT on products@6.6 (33k nodes)."""
    from repro.api import OpenWorldClassifier
    from repro.datasets.synthetic import load_open_world_dataset

    def build():
        dataset = load_open_world_dataset(PROFILE, seed=ctx.seed, scale=LARGE_SCALE)
        classifier = OpenWorldClassifier("openima", config=_config(ctx.seed, TRAIN_EPOCHS))
        # Training at this size would dominate the run; the untrained model
        # exercises the same inference path.
        return classifier.fit(dataset, max_epochs=0)

    def cycle() -> _Cycle:
        setup_s, classifier = ctx.timed(build)
        trainer = classifier.trainer_
        mode = classifier.inference_engine.resolve_mode(trainer.encoder,
                                                        trainer.dataset.graph)
        if mode != "layerwise":
            raise RuntimeError(f"predict_large resolved inference mode {mode!r}, "
                               "not 'layerwise'; the workload would skip that layer")
        classifier.inference_engine.invalidate()
        cold_s, cold = ctx.timed(classifier.evaluate)
        warm = [ctx.timed(classifier.evaluate) for _ in range(WARM_PREDICTS_PER_COLD)]
        return _Cycle([setup_s], cold_s, [took for took, _ in warm], _accuracy(cold),
                      {"layerwise_mode": True,
                       "warm_matches_cold": all(acc == cold for _, acc in warm)})

    return _in_process(ctx, cycle, ("predict_s", "warm_predict_s"), lambda tracer: {})


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class _Deltas:
    """Seeded graph deltas: new nodes linked to one existing anchor node.

    Deltas are sent one at a time so each knows the ids its nodes will get;
    after each ``/delta`` returns, every node it added is queried.
    """

    def __init__(self, rng: np.random.Generator, base_nodes: int, feature_dim: int):
        self.base_nodes = base_nodes
        self.num_nodes = base_nodes
        self.rng = rng
        self.feature_dim = feature_dim
        self.lock = threading.Lock()
        self.unverified = 0

    def job(self, offset: float) -> loadgen.Job:
        anchor = int(self.rng.integers(0, self.base_nodes))
        features = np.round(self.rng.normal(size=(DELTA_NODES, self.feature_dim)), 6).tolist()

        def exchange(conn: loadgen.Connection) -> dict:
            with self.lock:
                first = self.num_nodes
                new = list(range(first, first + DELTA_NODES))
                sources = new + new[1:]
                targets = [anchor] * DELTA_NODES + new[:-1]
                payload = conn.post("/delta", {"features": features,
                                               "edges": [sources, targets]})
                added = range(payload["old_num_nodes"], payload["new_num_nodes"])
                self.num_nodes = payload["new_num_nodes"]
                try:
                    answered = [conn.post("/predict", {"node": node}, primary=False)
                                ["result"]["node"] for node in added]
                except loadgen.RequestFailed:
                    answered = []
                if answered != new:
                    self.unverified += 1
                return payload

        return loadgen.Job("delta", offset, exchange)


def _read_job(node: int, offset: float) -> loadgen.Job:
    def exchange(conn: loadgen.Connection) -> dict:
        result = conn.post("/predict", {"node": node})["result"]
        if result["node"] != node:
            raise loadgen.RequestFailed(f"asked for node {node}, got {result['node']}")
        return result

    return loadgen.Job("read", offset, exchange)


def _read_jobs(rng: np.random.Generator, num_nodes: int, qps: float,
               duration: float) -> List[loadgen.Job]:
    count = max(1, int(round(qps * duration)))
    nodes = rng.integers(0, num_nodes, size=count)
    return [_read_job(int(node), i / qps) for i, node in enumerate(nodes)]


def _step_summary(outcomes: Sequence[loadgen.Outcome]) -> dict:
    latencies = [o.latency for o in outcomes]
    third = max(1, len(latencies) // 3)
    growth = float(np.mean(latencies[-third:]) - np.mean(latencies[:third]))
    summary = stats.summarize(latencies)
    high = summary["tail"] if summary["tail"] is not None else max(latencies)
    summary["growth_s"] = growth
    summary["failed"] = sum(not o.ok for o in outcomes)
    summary["passed"] = (summary["failed"] == 0 and high <= LATENCY_LIMIT_S
                         and growth <= BACKLOG_GROWTH_S)
    return summary


def _ms(summary: dict) -> dict:
    return {key: (1000 * value if key in ("median", "mean", "tail") and value is not None
                  else value)
            for key, value in summary.items()}


class _Server:
    """The run's checkpoint, its server command lines and the parity check."""

    def __init__(self, ctx: Context):
        from repro.api import OpenWorldClassifier

        self.ctx = ctx
        self.ckpt = ctx.workdir / "ckpt"
        classifier = OpenWorldClassifier("openima", config=_config(ctx.seed, CHECKPOINT_EPOCHS))
        classifier.fit(PROFILE, seed=ctx.seed, scale=TRAIN_SCALE)
        classifier.save(self.ckpt)
        self.reference = OpenWorldClassifier.load(self.ckpt).predict()
        self.num_nodes = int(self.reference.shape[0])
        self.feature_dim = int(classifier.trainer_.dataset.graph.num_features)
        src = str(ctx.root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        self.plain = [sys.executable, "-m", "repro.experiments.cli", "serve",
                      str(self.ckpt), "--port", "0"]
        self.traced = [sys.executable, str(HERE / "serve_launcher.py"),
                       str(self.ckpt), "--port", "0"]

    def process(self, traced: bool = False) -> loadgen.ServerProcess:
        return loadgen.ServerProcess(self.traced if traced else self.plain,
                                     cwd=str(self.ctx.root), env=self.env)

    def parity(self, server: loadgen.ServerProcess, rng: np.random.Generator):
        """Served answers for a seeded node sample vs ``load(ckpt).predict()``."""
        conn = loadgen.Connection(server.host, server.port, REQUEST_TIMEOUT_S)
        try:
            nodes = rng.choice(self.num_nodes, size=min(PARITY_NODES, self.num_nodes),
                               replace=False)
            same = all(conn.post("/predict", {"node": int(node)})["result"]["prediction"]
                       == int(self.reference[node]) for node in nodes)
        except loadgen.RequestFailed:
            same = False
        finally:
            conn.close()
        return same, conn


def _serve(ctx: Context, mixed: bool) -> Result:
    served = _Server(ctx)

    def measure(server: loadgen.ServerProcess) -> dict:
        """Parity check, then the open-loop schedule; scrape before stopping."""
        rng = np.random.default_rng(ctx.seed)
        parity, parity_conn = served.parity(server, np.random.default_rng(ctx.seed + 1))
        steps, deltas = [], None
        if mixed:
            deltas = _Deltas(np.random.default_rng(ctx.seed + 2), served.num_nodes,
                             served.feature_dim)
            duration = 0.9 * ctx.seconds
            jobs = _read_jobs(rng, served.num_nodes, NOMINAL_QPS, duration)
            jobs += [deltas.job((i + 0.5) / DELTA_QPS)
                     for i in range(int(DELTA_QPS * duration))]
            runs = [loadgen.run_open_loop(server.host, server.port, jobs,
                                          CONNECTIONS, REQUEST_TIMEOUT_S)]
        else:
            # Every step runs, so the gated top step is always measured.
            runs = []
            for qps, share in zip((NOMINAL_QPS, *LADDER_QPS), STEP_SHARES, strict=True):
                run = loadgen.run_open_loop(
                    server.host, server.port,
                    _read_jobs(rng, served.num_nodes, qps, share * ctx.seconds),
                    CONNECTIONS, REQUEST_TIMEOUT_S)
                runs.append(run)
                steps.append({"qps": qps, **_ms(_step_summary(run.of("read")))})
        metrics_text = server.get("/metrics")
        server_stats = json.loads(server.get("/stats"))
        return {"parity": parity, "parity_conn": parity_conn, "runs": runs,
                "nominal": runs[0], "steps": steps, "deltas": deltas,
                "metrics_text": metrics_text, "stats": server_stats,
                "peak_rss_mb": server.peak_rss_mb()}

    def summarize(measured: dict) -> dict:
        nominal = measured["nominal"]
        out = {"read": _ms(stats.summarize([o.latency for o in nominal.of("read")])),
               "late": _ms(stats.summarize([o.lag for o in nominal.outcomes]))}
        if mixed:
            out["delta"] = _ms(stats.summarize([o.latency for o in nominal.of("delta")]))
            # Under deltas the read tail is the wait behind the writer lock.
            out["main_ms"], out["aux_ms"] = out["delta"]["median"], out["read"]["tail"]
        else:
            # Medians: host stalls of a few reads moved the nominal step's
            # mean, p75 and tail by 40-60% between runs.
            out["main_ms"] = out["read"]["median"]
            out["aux_ms"] = measured["steps"][-1]["median"]
        return out

    setups: List[float] = []
    stopped_clean = []

    def start() -> loadgen.ServerProcess:
        process = served.process()
        setups.append(ctx.timed(process.start, after=False)[0])
        return process

    # Set-up is timed on a start before the measured server and, untraced,
    # one after it, so its samples spread over the run.
    if not ctx.trace:
        stopped_clean.append(start().stop())
    with start() as server:
        measured = measure(server)
    stopped_clean.append(server.stop())
    if not ctx.trace:
        stopped_clean.append(start().stop())
    plain = summarize(measured)

    traced_layers: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    if ctx.trace:
        with served.process(traced=True) as server:
            traced = measure(server)
        stopped_clean.append(server.stop())
        snapshot = _launcher_snapshot(server.lines)
        calls = snapshot["calls"]
        traced_layers = _serve_layers(snapshot, traced)
        traced_layers["trace.overhead_pct"] = _overhead_pct(
            summarize(traced)["main_ms"], plain["main_ms"])
        measured_runs = [measured, traced]
    else:
        measured_runs = [measured]

    attempted = sum(m["parity_conn"].attempted + sum(r.attempted for r in m["runs"])
                    for m in measured_runs)
    failed = sum(m["parity_conn"].failed + sum(r.failed for r in m["runs"])
                 for m in measured_runs)
    checks = {
        "served_equals_offline_predict": all(m["parity"] for m in measured_runs),
        "server_stopped_cleanly": all(stopped_clean),
    }
    if mixed:
        checks["delta_nodes_queryable"] = all(
            m["deltas"].unverified == 0 and m["deltas"].num_nodes > served.num_nodes
            for m in measured_runs)
    setup = stats.summarize(setups)
    report = {
        "setup_s": setup,
        "read_ms": plain["read"],
        "error_rate": failed / attempted if attempted else 0.0,
        "peak_rss_mb": measured["peak_rss_mb"],
        "loadgen_late_ms": plain["late"],
        "connections": CONNECTIONS,
        "nominal_qps": NOMINAL_QPS,
    }
    if mixed:
        report["delta_ms"] = plain["delta"]
        report["delta_qps"] = DELTA_QPS
        report["deltas_applied"] = measured["stats"]["service"]["deltas_applied"]
    else:
        ladder = measured["steps"]
        passing = [step["qps"] for step in itertools.takewhile(
            lambda step: step["passed"], ladder)]
        report["ladder"] = ladder
        report["read_max_qps"] = passing[-1] if passing else 0.0
        # Every step passed: the highest rate that meets the limit is at
        # least the top step's.
        report["read_max_qps_is_lower_bound"] = len(passing) == len(ladder)
    # Served latencies are client-observed as they are; only set-up, which
    # is CPU-bound, is expressed at the reference CPU speed.
    report["cpu_speed_factor"] = ctx.calibration.factor
    # The median start: one slow start (page cache, a host stall) is no
    # change of the program.
    e2e = {"setup_s": setup["median"], "main_ms": plain["main_ms"],
           "aux_ms": plain["aux_ms"], "peak_rss_mb": measured["peak_rss_mb"]}
    return Result(e2e, report, attempted=attempted, failed=failed, checks=checks,
                  layers=traced_layers, calls=calls)


def _launcher_snapshot(lines: Sequence[str]) -> dict:
    for line in reversed(lines):
        if line.startswith("perfbench-trace "):
            return json.loads(line[len("perfbench-trace "):])
    raise RuntimeError("the traced server printed no perfbench-trace line")


def _serve_layers(snapshot: dict, measured: dict) -> Dict[str, float]:
    layers = tracing.layer_metrics(snapshot)
    nominal: loadgen.LoadResult = measured["nominal"]
    service = measured["parity_conn"].predict_service + [
        seconds for run in measured["runs"] for seconds in run.predict_service]
    handler_ms = 1000 * loadgen.histogram_mean(
        measured["metrics_text"], "repro_serve_request_seconds", "/predict")
    lags = [o.lag for o in nominal.outcomes]
    reads = nominal.of("read")
    span = max(o.done for o in reads) - min(o.due for o in reads)
    lag_tail = stats.tail(lags)
    layers.update({
        "serve.batch_size": measured["stats"]["coalescer"]["mean_requests_per_batch"],
        "serve.snapshot_builds": measured["stats"]["service"]["snapshot_builds"],
        "serve.handler_mean_ms": handler_ms,
        "serve.transport_mean_ms": 1000 * float(np.mean(service)) - handler_ms,
        "loadgen.late_tail_ms": 1000 * (lag_tail[0] if lag_tail else max(lags)),
        "loadgen.achieved_qps": len(reads) / span if span > 0 else 0.0,
    })
    return layers


def serve_read(ctx: Context) -> Result:
    """Open-loop single-node reads against ``repro serve`` on a ladder of rates."""
    return _serve(ctx, mixed=False)


def serve_mixed(ctx: Context) -> Result:
    """Nominal-rate reads plus ``POST /delta`` writes against ``repro serve``."""
    return _serve(ctx, mixed=True)


WORKLOADS = {"train": train, "predict_large": predict_large,
             "serve_read": serve_read, "serve_mixed": serve_mixed}
