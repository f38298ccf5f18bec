"""Online serving: sustained queries/sec and p50/p99 latency over HTTP.

A tiny OpenIMA checkpoint is trained once, loaded once into a
:class:`~repro.serve.ModelServer` (stdlib HTTP + request coalescer), and
hammered by closed-loop client threads issuing single-node queries.  The
numbers that matter for the "millions of users" direction:

* **sustained qps** — requests answered per wall-clock second under
  concurrent load (every query after the first is answered from the warm
  snapshot: zero encoder passes on the request path);
* **p50/p99 latency** — per-request service time measured server-side;
* **cache hit rate** — repeated same-version queries must hit the
  versioned embedding cache (asserted, not just reported);
* **coalescing** — a concurrent burst lands in fewer model calls than
  requests.

Results are appended to ``benchmarks/results/perf_serving.txt``.
"""

from __future__ import annotations

import threading
import time

import pytest
from conftest import save_report

from repro.api import OpenWorldClassifier
from repro.core.config import fast_config
from repro.serve import ModelServer, PredictionService, ServeClient, ServeConfig

TRAIN_EPOCHS = 2
TRAIN_SCALE = 0.2
CLIENT_THREADS = 4
REQUESTS_PER_THREAD = 150

_state: dict = {}
_report_lines: list = []


def _report(line: str) -> None:
    _report_lines.append(line)
    save_report("perf_serving", "\n".join(_report_lines))


def serving_fixture(tmp_path_factory=None) -> dict:
    """Train once, serve once; reused across every test in this module."""
    if _state:
        return _state
    clf = OpenWorldClassifier(
        "openima", config=fast_config(max_epochs=TRAIN_EPOCHS, seed=0))
    clf.fit("citeseer", scale=TRAIN_SCALE, seed=0)
    import tempfile

    ckpt = tempfile.mkdtemp(prefix="perf-serving-") + "/ckpt"
    clf.save(ckpt)

    served = OpenWorldClassifier.load(ckpt)
    server = ModelServer(PredictionService(served),
                         ServeConfig(port=0))
    server.serve_in_background()
    client = ServeClient(port=server.port)
    client.wait_until_ready(timeout=30)
    _state.update(ckpt=ckpt, server=server, client=client,
                  num_nodes=served.trainer_.dataset.graph.num_nodes)
    _report(f"model: openima on citeseer scale={TRAIN_SCALE} "
            f"({_state['num_nodes']} nodes)")
    return _state


def sustained_load() -> dict:
    """Closed-loop load: CLIENT_THREADS workers issuing single-node queries."""
    if "load" in _state:
        return _state["load"]
    state = serving_fixture()
    server: ModelServer = state["server"]
    num_nodes = state["num_nodes"]
    barrier = threading.Barrier(CLIENT_THREADS)
    errors: list = []

    def worker(worker_id: int) -> None:
        try:
            with ServeClient(port=server.port) as client:
                barrier.wait()
                for i in range(REQUESTS_PER_THREAD):
                    client.predict((worker_id * REQUESTS_PER_THREAD + i) % num_nodes)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(CLIENT_THREADS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors

    total = CLIENT_THREADS * REQUESTS_PER_THREAD
    stats = server.stats()
    load = {
        "total": total,
        "elapsed": elapsed,
        "qps": total / elapsed,
        "stats": stats,
    }
    _state["load"] = load
    latency = stats["latency"]
    _report(
        f"sustained: {total} requests from {CLIENT_THREADS} threads in "
        f"{elapsed:.2f}s -> {load['qps']:.0f} qps  "
        f"p50={latency['p50_ms']:.2f} ms  p99={latency['p99_ms']:.2f} ms"
    )
    _report(
        f"coalescer: {stats['coalescer']['requests']} requests in "
        f"{stats['coalescer']['batches']} batches "
        f"(max {stats['coalescer']['max_batch_nodes']} nodes)"
    )
    cache = stats["service"]["embedding_cache"]
    _report(
        f"cache: hits={cache['hits']} misses={cache['misses']} "
        f"hit_rate={cache['hit_rate']:.4f}  "
        f"encoder_forwards={stats['service']['encoder_forwards']}"
    )
    return load


def test_served_predictions_match_offline_predict():
    """Acceptance: served queries are bitwise-identical to load().predict()."""
    state = serving_fixture()
    reference = OpenWorldClassifier.load(state["ckpt"]).predict()
    client: ServeClient = state["client"]
    for node in range(0, state["num_nodes"], 7):
        assert client.predict(node)["prediction"] == int(reference[node])
    batch = client.predict_batch(list(range(10)))
    assert [b["prediction"] for b in batch] == [int(p) for p in reference[:10]]


def test_sustained_throughput_and_latency():
    """Acceptance: the report carries sustained qps and p50/p99 latency."""
    load = sustained_load()
    latency = load["stats"]["latency"]
    assert latency["requests"] >= load["total"]
    assert latency["p50_ms"] is not None and latency["p99_ms"] is not None
    assert latency["p50_ms"] <= latency["p99_ms"]
    # A warm in-process server answering tiny JSON queries must not be
    # slower than 25 qps even on a throttled CI runner.
    assert load["qps"] > 25.0


def test_repeated_queries_hit_embedding_cache():
    """Acceptance: same-version queries are embedding-cache hits."""
    load = sustained_load()
    cache = load["stats"]["service"]["embedding_cache"]
    assert cache["hits"] > 0
    assert cache["hit_rate"] > 0.5
    # The request path never recomputed the model: one warm-up forward.
    assert load["stats"]["service"]["encoder_forwards"] == 1
    assert load["stats"]["service"]["snapshot_builds"] == 1


def test_concurrent_burst_is_coalesced():
    load = sustained_load()
    coalescer = load["stats"]["coalescer"]
    assert coalescer["requests"] >= load["total"]
    # Requests that queue while a batch runs share the next one, so part of
    # the 4-thread burst must coalesce.
    assert coalescer["batches"] < coalescer["requests"]
    assert coalescer["coalesced_requests"] > 0


@pytest.fixture(scope="module", autouse=True)
def _shutdown_server():
    yield
    state = _state
    if "client" in state:
        state["client"].close()
    if "server" in state:
        state["server"].shutdown()
