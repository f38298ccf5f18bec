"""The OpenBLAS thread-count helper, and served outputs at one BLAS thread.

``repro serve`` pins numpy's OpenBLAS to one thread.  Serving must answer
bit for bit what it answers at the default count, or the served predictions
would stop matching ``OpenWorldClassifier.load(ckpt).predict()``.  Every
test restores the default count: training floats depend on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.core.config import fast_config
from repro.serve import PredictionService, blas, blas_threads, set_blas_threads

from .test_delta_serving import arrival_delta

needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy links no OpenBLAS")


@pytest.fixture()
def default_threads():
    """The default thread count, restored after the test."""
    default = blas_threads()
    yield default
    if default is not None:
        set_blas_threads(default)


@pytest.fixture(scope="module")
def gat_checkpoint(tmp_path_factory):
    """A 1-epoch GAT checkpoint on products@0.35, as perfbench serves it."""
    classifier = OpenWorldClassifier(
        "openima", config=fast_config(max_epochs=1, seed=0, encoder_kind="gat",
                                      batch_size=384))
    classifier.fit("ogbn-products", scale=0.35, seed=0)
    path = tmp_path_factory.mktemp("serve-gat") / "ckpt"
    classifier.save(path)
    return path


@needs_openblas
def test_set_returns_previous_count_and_get_reads_it_back(default_threads):
    assert set_blas_threads(1) == default_threads
    assert blas_threads() == 1
    assert set_blas_threads(default_threads) == 1
    assert blas_threads() == default_threads


def test_missing_openblas_answers_none_and_changes_nothing(monkeypatch,
                                                          default_threads):
    monkeypatch.setattr(blas, "_SYMBOLS", ("no_such_blas_{}_num_threads",))
    assert blas_threads() is None
    assert set_blas_threads(1) is None
    monkeypatch.undo()
    assert blas_threads() == default_threads


def served_after_deltas(checkpoint, threads: int):
    """The snapshot served after warm-up and 3 deltas at ``threads`` threads."""
    previous = set_blas_threads(threads)
    try:
        service = PredictionService(OpenWorldClassifier.load(checkpoint))
        service.warm()
        graph = service.classifier.trainer_.dataset.graph
        for seed in range(3):
            service.apply_delta(arrival_delta(graph, num_new=2, seed=seed))
        return service.snapshot()
    finally:
        set_blas_threads(previous)


@needs_openblas
@pytest.mark.parametrize("checkpoint", ["served_checkpoint", "gat_checkpoint"])
def test_served_snapshot_bitwise_equal_at_one_thread(request, checkpoint,
                                                     default_threads):
    path = request.getfixturevalue(checkpoint)
    pinned = served_after_deltas(path, 1)
    default = served_after_deltas(path, default_threads)
    assert blas_threads() == default_threads
    for field in ("embeddings", "predictions", "cluster_labels", "known_logits"):
        assert np.array_equal(getattr(pinned, field), getattr(default, field)), field
