"""RequestCoalescer: batching semantics, ordering, errors, shutdown."""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.serve import RequestCoalescer


def echo_batch(nodes):
    """A deterministic stand-in for the prediction service."""
    return [{"node": n, "value": n * 10} for n in nodes]


class HeldBatch:
    """A batch function that parks the worker in its call until released.

    Requests submitted while the worker is parked queue up, so a test can
    build a batch without relying on timing.
    """

    def __init__(self):
        self.calls = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, nodes):
        self.calls.append(list(nodes))
        self.entered.set()
        # Bounded, so a failing test cannot leave the worker parked.
        self.release.wait(timeout=5)
        return echo_batch(nodes)


@pytest.fixture()
def coalescer():
    c = RequestCoalescer(echo_batch).start()
    yield c
    c.stop()


class TestBatching:
    def test_single_request_round_trip(self, coalescer):
        assert coalescer.predict([4, 2]) == echo_batch([4, 2])

    def test_takes_no_window(self):
        with pytest.raises(TypeError):
            RequestCoalescer(echo_batch, batch_window_ms=1.0)

    def test_idle_coalescer_answers_at_once(self, coalescer):
        coalescer.predict([0])  # the worker thread is up
        times = []
        for node in range(20):
            start = time.perf_counter()
            assert coalescer.predict([node]) == echo_batch([node])
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 2e-3

    def test_requests_queued_during_a_batch_share_the_next(self):
        held = HeldBatch()
        c = RequestCoalescer(held).start()
        try:
            first = c.submit([100])
            assert held.entered.wait(timeout=5)
            queued = [c.submit([node]) for node in range(6)]
            held.release.set()
            assert first.result(timeout=5) == echo_batch([100])
            assert [f.result(timeout=5) for f in queued] == [
                echo_batch([node]) for node in range(6)]
            assert held.calls == [[100], list(range(6))]
            stats = c.stats()
            assert stats["batches"] == 2
            assert stats["requests"] == 7
            assert stats["coalesced_requests"] == 6
        finally:
            held.release.set()
            c.stop()

    def test_results_split_back_per_request(self, coalescer):
        futures = [coalescer.submit([i, i + 100]) for i in range(5)]
        for i, future in enumerate(futures):
            assert future.result(timeout=5) == echo_batch([i, i + 100])

    def test_max_batch_respected(self):
        sizes = []

        def recording_batch(nodes):
            sizes.append(len(nodes))
            return echo_batch(nodes)

        c = RequestCoalescer(recording_batch, max_batch=3)
        try:
            futures = [c.submit([i]) for i in range(7)]
            c.start()
            for f in futures:
                f.result(timeout=5)
            assert sizes == [3, 3, 1]
        finally:
            c.stop()

    def test_oversized_request_still_served(self):
        c = RequestCoalescer(echo_batch, max_batch=2).start()
        try:
            assert c.predict([1, 2, 3, 4, 5]) == echo_batch([1, 2, 3, 4, 5])
        finally:
            c.stop()


class TestFailureAndShutdown:
    def test_batch_error_propagates_to_each_request(self):
        def failing_batch(nodes):
            raise IndexError("node out of range")

        c = RequestCoalescer(failing_batch)
        try:
            # Queued before the worker starts, so all three share one batch.
            futures = [c.submit([i]) for i in range(3)]
            c.start()
            for future in futures:
                with pytest.raises(IndexError):
                    future.result(timeout=5)
            assert c.stats()["batches"] == 1
        finally:
            c.stop()

    def test_error_does_not_kill_worker(self):
        calls = {"n": 0}

        def flaky_batch(nodes):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch fails")
            return echo_batch(nodes)

        c = RequestCoalescer(flaky_batch).start()
        try:
            with pytest.raises(RuntimeError):
                c.predict([1])
            assert c.predict([2]) == echo_batch([2])
        finally:
            c.stop()

    def test_stop_drains_pending_requests(self):
        held = HeldBatch()
        c = RequestCoalescer(held).start()
        first = c.submit([1])
        assert held.entered.wait(timeout=5)
        second = c.submit([2])
        held.release.set()
        c.stop()
        assert first.result(timeout=5) == echo_batch([1])
        assert second.result(timeout=5) == echo_batch([2])

    def test_submit_after_stop_rejected(self):
        c = RequestCoalescer(echo_batch).start()
        c.stop()
        with pytest.raises(RuntimeError):
            c.submit([1])

    def test_result_length_mismatch_is_an_error(self):
        c = RequestCoalescer(lambda nodes: []).start()
        try:
            with pytest.raises(RuntimeError):
                c.predict([1, 2])
        finally:
            c.stop()
