"""Concurrent access to one fitted classifier: threaded == serial.

The serving layer's contract is that any number of reader threads can
query one fitted model and observe exactly the results a serial caller
would get.  These tests drive the public surfaces (``predict``/``embed``
and the service query path) from many threads and compare bit-for-bit
against single-threaded references.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.graphs import GraphDelta
from repro.serve import PredictionService


def run_threads(worker, count):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            worker(i)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


class TestThreadedClassifierAccess:
    def test_threaded_predict_matches_serial(self, served_classifier):
        serial = served_classifier.predict()
        results = {}

        def worker(i):
            results[i] = served_classifier.predict()

        run_threads(worker, 8)
        for predictions in results.values():
            np.testing.assert_array_equal(predictions, serial)

    def test_threaded_embed_matches_serial(self, served_classifier):
        serial = served_classifier.embed()
        results = {}

        def worker(i):
            results[i] = served_classifier.embed()

        run_threads(worker, 8)
        for embeddings in results.values():
            np.testing.assert_array_equal(embeddings, serial)

    def test_threaded_embed_hits_cache(self, served_classifier):
        served_classifier.embed()  # warm
        cache = served_classifier.inference_engine.cache
        hits_before = cache.stats()["hits"]

        run_threads(lambda i: served_classifier.embed(), 8)
        stats = cache.stats()
        assert stats["hits"] >= hits_before + 8
        # The warm pass was the only forward.
        assert served_classifier.inference_engine.forward_count == 1


class TestThreadedServiceAccess:
    def test_threaded_queries_match_serial(self, served_classifier):
        service = PredictionService(served_classifier)
        nodes = list(range(25))
        results = {}

        def worker(i):
            results[i] = service.query(nodes)

        # Cold start: all 8 threads race to build the first snapshot, but
        # the writer lock admits exactly one build.
        run_threads(worker, 8)
        assert service.snapshot_builds == 1
        serial = service.query(nodes)
        assert all(results[i] == serial for i in results)

    def test_coalesced_micro_batch_matches_singles(self, served_classifier):
        """A batched query is bit-for-bit N independent single queries."""
        service = PredictionService(served_classifier)
        nodes = [0, 7, 13, 7, 2]
        batch = service.query(nodes)
        singles = [service.query([n])[0] for n in nodes]
        assert batch == singles

    def test_reads_during_deltas_never_go_back_or_build(self, served_classifier):
        """Readers racing a writer see each published snapshot whole, in order."""
        service = PredictionService(served_classifier)
        service.warm()
        graph = served_classifier.trainer_.dataset.graph
        rng = np.random.default_rng(0)
        done = threading.Event()
        seen = {}

        def worker(i):
            if i == 0:
                try:
                    for _ in range(5):
                        n = graph.num_nodes
                        service.apply_delta(GraphDelta.undirected(
                            rng.normal(size=(1, graph.features.shape[1])),
                            np.array([[n], [int(rng.integers(n))]])))
                finally:
                    done.set()
                return
            observed = seen.setdefault(i, [])
            while not done.is_set():
                snapshot = service.snapshot()
                observed.append((snapshot.graph_version, snapshot.num_nodes,
                                 snapshot.query([0])[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(worker, 6)
        finally:
            sys.setswitchinterval(interval)
        # Only the warm-up and the writer built: no reader built a snapshot.
        assert service.snapshot_builds == 1 + 5
        by_version = {}
        for observed in seen.values():
            versions = [version for version, _, _ in observed]
            assert versions == sorted(versions)
            for version, num_nodes, payload in observed:
                assert by_version.setdefault(version, (num_nodes, payload)) == (
                    num_nodes, payload)
        assert service.snapshot().num_nodes == graph.num_nodes
