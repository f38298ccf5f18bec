"""Self-tests of the perfbench harness (tracer, tail rule, open-loop generator).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def toy_module(monkeypatch):
    """A throwaway module with a function, an import of it, and a class."""
    defining = types.ModuleType("perfbench_toy_defs")
    calling = types.ModuleType("perfbench_toy_caller")

    def helper(x):
        return x + 1

    class Worker:
        def run(self, x):
            return calling.helper(x) * 2

    helper.__module__ = defining.__name__
    defining.helper = helper
    calling.helper = helper
    calling.Worker = Worker
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, calling.__name__, calling)
    return defining, calling


def test_wrappers_restore_the_original_bindings(toy_module):
    defining, calling = toy_module
    original_helper, original_run = calling.helper, vars(calling.Worker)["run"]
    targets = [tracer.Target("toy.helper", calling.__name__, "helper", defining.__name__),
               tracer.Target("toy.run", calling.__name__, "Worker.run")]
    with tracer.Tracer().install(targets) as traced:
        assert calling.helper is not original_helper
        assert calling.Worker().run(1) == 4
    assert calling.helper is original_helper
    assert vars(calling.Worker)["run"] is original_run
    assert traced.calls == {"toy.helper": 1, "toy.run": 1}


def test_a_wrapper_on_the_wrong_name_fails_loudly(toy_module):
    defining, calling = toy_module
    calling.helper = lambda x: x  # the caller no longer reaches defining.helper
    with pytest.raises(LookupError, match="no longer reach"):
        tracer.Tracer().patch(
            tracer.Target("toy.helper", calling.__name__, "helper", defining.__name__))
    with pytest.raises(LookupError, match="does not exist"):
        tracer.Tracer().patch(tracer.Target("toy.gone", calling.__name__, "Worker.gone"))


def test_self_time_subtracts_nested_wrapped_calls(toy_module):
    _, calling = toy_module
    now = [0.0]

    def inner():
        now[0] += 5.0

    def outer():
        now[0] += 2.0
        calling.inner()
        now[0] += 1.0

    calling.inner, calling.outer = inner, outer
    targets = [tracer.Target("toy.inner", calling.__name__, "inner"),
               tracer.Target("toy.outer", calling.__name__, "outer")]
    with tracer.Tracer(clock=lambda: now[0]).install(targets, probes={}) as traced:
        calling.outer()
    assert traced.total_s == {"toy.inner": 5.0, "toy.outer": 8.0}
    assert traced.self_s == {"toy.inner": 5.0, "toy.outer": 3.0}


def test_tail_keeps_ten_samples_beyond_it():
    assert stats.tail(list(range(1, 101))) == (90, 90.0)
    assert stats.tail(list(range(1, 1001))) == (990, 99.0)
    value, level = stats.tail(list(range(1, 22)))
    assert (value, round(level, 2)) == (11, 52.38)
    assert stats.tail(list(range(20))) is None  # a tail at or below the median
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "median": 2.0, "mean": 2.0, "tail": None, "tail_pct": None}


class _SleepyHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service_s = 0.05

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.service_s)
        data = json.dumps({"result": body}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client timed out and hung up

    def log_message(self, *args):
        pass


class _StuckHandler(_SleepyHandler):
    service_s = 0.5


@contextlib.contextmanager
def _stub_server(handler):
    """A threaded HTTP server on a free port; yields the port."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()


def _posts(count: int, interval: float):
    return [loadgen.Job("read", i * interval,
                        lambda conn, i=i: conn.post("/predict", {"node": i}))
            for i in range(count)]


def test_open_loop_latency_counts_queueing_from_the_due_time():
    # 100 requests/s against one connection that serves 20/s: each
    # request waits for the ones before it.
    with _stub_server(_SleepyHandler) as port:
        result = loadgen.run_open_loop("127.0.0.1", port, _posts(12, 0.01),
                                       connections=1, timeout=5.0)
    assert result.attempted == 12 and result.failed == 0
    latencies = [o.latency for o in result.of("read")]
    service = result.predict_service
    assert all(later > earlier for earlier, later in zip(latencies, latencies[1:]))
    # The last request was due 0.11 s in but served after eleven others.
    assert latencies[-1] > 0.4 > 2 * max(service)
    # The generator itself was never late: every delay was the server's queue.
    assert max(o.lag for o in result.outcomes) < 0.02


def test_jobs_overdue_by_the_timeout_fail_unsent():
    # All due at once, and the server answers after 0.5 s.  The first
    # request times out after 0.2 s, by when every other job is overdue by
    # more than the timeout: they fail unsent instead of a timeout each.
    with _stub_server(_StuckHandler) as port:
        start = time.perf_counter()
        result = loadgen.run_open_loop("127.0.0.1", port, _posts(10, 0.0),
                                       connections=1, timeout=0.2)
        took = time.perf_counter() - start
    assert result.attempted == result.failed == 10
    assert sum(o.error.startswith("not sent") for o in result.outcomes) == 9
    assert all(not o.ok and o.latency >= 0.2 for o in result.outcomes)
    assert took < 1.0


def test_benchmark_json_agrees_with_metrics_json():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = json.loads((HERE / "metrics.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert workloads == list(metrics["workloads"])
    gated = {m["name"] for m in benchmark["end_to_end"]}
    assert all(set(meanings) == gated for meanings in metrics["workloads"].values())
    assert [m["name"] for m in benchmark["per_layer"]] == list(metrics["per_layer"])
    for spec in metrics["per_layer"].values():
        assert set(spec["nonzero_on"]) <= set(workloads)
