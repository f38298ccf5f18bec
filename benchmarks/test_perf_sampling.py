"""Full-graph vs neighborhood-sampled mini-batch training benchmark.

``sampling.mode="full"`` runs the encoder twice per batch on the whole graph
(its last layer only for the batch's nodes), so one epoch costs
O(num_batches x full-graph first layer).  ``"khop"`` extracts the exact
2-hop receptive field of each batch and runs the encoder there instead;
``"sampled"`` additionally caps the per-hop expansion.  This benchmark
measures the median per-step wall-clock of ``TIMED_STEPS`` warm
``GraphTrainer._train_step`` calls (identical batch schedules across modes,
same random graph: avg degree 8, 32 features) at 10k and 50k nodes and
reports the epoch-time speedup —
per-epoch batch counts are identical across modes, so the per-step ratio IS
the epoch-time ratio.

Results are appended to ``benchmarks/results/perf_sampling.txt``.
The 50k khop case is the acceptance headline: >= 5x measured speedup.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import save_report

from repro.baselines.two_stage import InfoNCETrainer
from repro.core.config import SamplingConfig, fast_config
from repro.datasets.splits import OpenWorldDataset, make_open_world_split
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges

AVG_DEGREE = 8
NUM_FEATURES = 32
BATCH_SIZE = 64
#: Warm steps timed per mode; the gates read their median, so a few slow
#: steps (scheduler noise on a shared box) cannot decide a ratio.
TIMED_STEPS = 15

_datasets: dict = {}
_measurements: dict = {}
_report_lines: list = []


def synthetic_dataset(num_nodes: int, seed: int = 0) -> OpenWorldDataset:
    if num_nodes not in _datasets:
        rng = np.random.default_rng(seed)
        num_edges = num_nodes * AVG_DEGREE // 2
        src = rng.integers(num_nodes, size=num_edges)
        dst = rng.integers(num_nodes, size=num_edges)
        graph = Graph(
            features=rng.normal(size=(num_nodes, NUM_FEATURES)),
            edge_index=symmetrize_edges(np.vstack([src, dst])),
            labels=rng.integers(4, size=num_nodes),
            name=f"perf-sampling-{num_nodes}",
        )
        split = make_open_world_split(graph, seen_fraction=0.5,
                                      labels_per_class=10, seed=seed)
        _datasets[num_nodes] = OpenWorldDataset(
            graph=graph, split=split, name=graph.name)
    return _datasets[num_nodes]


def measure(num_nodes: int, mode: str) -> dict:
    """Median per-step time over ``TIMED_STEPS`` warm `_train_step` calls."""
    key = (num_nodes, mode)
    if key in _measurements:
        return _measurements[key]
    dataset = synthetic_dataset(num_nodes)
    sampling = SamplingConfig(mode=mode, fanouts=[8, 8] if mode == "sampled" else None)
    config = fast_config(max_epochs=1, seed=0, encoder_kind="gcn",
                         batch_size=BATCH_SIZE, sampling=sampling)
    trainer = InfoNCETrainer(dataset, config)
    batches = list(trainer._iterate_batches())
    num_batches = len(batches)

    trainer._train_step(batches[0])  # warm-up: builds propagation/CSR caches
    times = []
    for step in range(TIMED_STEPS):
        batch = batches[(step + 1) % num_batches]
        start = time.perf_counter()
        trainer._train_step(batch)
        times.append(time.perf_counter() - start)

    step_time = float(np.median(times))
    result = {"step": step_time, "epoch": step_time * num_batches,
              "num_batches": num_batches}
    _measurements[key] = result
    _report_lines.append(
        f"n={num_nodes:>6}  mode={mode:<8}  step={step_time * 1e3:8.2f} ms  "
        f"epoch({num_batches} batches)={result['epoch']:7.2f} s"
    )
    save_report("perf_sampling", "\n".join(_report_lines))
    return result


def record_speedup(num_nodes: int, mode: str) -> float:
    full = measure(num_nodes, "full")
    scoped = measure(num_nodes, mode)
    speedup = full["epoch"] / scoped["epoch"]
    _report_lines.append(f"epoch speedup @{num_nodes} ({mode} vs full): {speedup:.1f}x")
    save_report("perf_sampling", "\n".join(_report_lines))
    return speedup


@pytest.mark.parametrize("num_nodes", [10_000, 50_000])
def test_khop_not_slower_than_full(num_nodes):
    assert record_speedup(num_nodes, "khop") >= 1.0


def test_khop_speedup_at_10k():
    assert record_speedup(10_000, "khop") >= 1.5


def test_khop_speedup_at_50k_at_least_5x():
    """Acceptance headline: measured epoch-time speedup >= 5x at 50k nodes."""
    assert record_speedup(50_000, "khop") >= 5.0


def test_sampled_mode_bounded_and_fast_at_50k():
    """Fanout caps keep sampled mode at least as scoped as exact khop."""
    assert record_speedup(50_000, "sampled") >= 5.0


def test_khop_and_full_losses_agree_without_dropout():
    """Cross-check on the benchmark graph: the speedup is not buying a
    different optimization problem (dropout off -> identical batch losses)."""
    dataset = synthetic_dataset(10_000)
    histories = {}
    for mode in ("full", "khop"):
        config = fast_config(max_epochs=1, seed=0, encoder_kind="gcn",
                             batch_size=2048,
                             sampling=SamplingConfig(mode=mode))
        config = config.with_updates(encoder=config.encoder.with_updates(dropout=0.0))
        histories[mode] = InfoNCETrainer(dataset, config).fit().losses
    np.testing.assert_allclose(histories["khop"], histories["full"], atol=1e-8)
