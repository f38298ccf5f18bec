"""Experiment runner: train a method on a dataset profile and collect metrics.

The runner is the glue between the method implementations and the table /
figure builders.  It handles seed repetition, method construction (OpenIMA or
any baseline), accuracy evaluation, and the auxiliary statistics (imbalance
rate, separation rate, validation accuracy, silhouette) used by Figure 1b
and the SC&ACC analysis.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import (
    SamplingConfig,
    SerializableConfig,
    TrainerConfig,
    fast_config,
)
from ..core.registry import METHODS
from ..core.trainer import GraphTrainer
from ..datasets.synthetic import load_open_world_dataset
from ..datasets.splits import OpenWorldDataset
from ..metrics.accuracy import OpenWorldAccuracy, open_world_accuracy
from ..metrics.selection import score_candidate
from ..metrics.variance import variance_imbalance_report
from ..obs import EVENTS, REGISTRY

_FALLBACKS = REGISTRY.counter(
    "repro_parallel_serial_fallbacks_total",
    "Experiment grids whose pool failed and that re-ran serially, by reason.",
    labelnames=("reason",))


@dataclass
class RunResult:
    """Metrics from a single (method, dataset, seed) run."""

    method: str
    dataset: str
    seed: int
    accuracy: OpenWorldAccuracy
    validation_accuracy: float
    imbalance_rate: float
    separation_rate: float
    silhouette: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "seed": self.seed,
            "all": self.accuracy.overall,
            "seen": self.accuracy.seen,
            "novel": self.accuracy.novel,
            "val_acc": self.validation_accuracy,
            "imbalance_rate": self.imbalance_rate,
            "separation_rate": self.separation_rate,
            "silhouette": self.silhouette,
        }


@dataclass
class AggregatedResult:
    """Mean metrics over multiple seeds for one (method, dataset) pair."""

    method: str
    dataset: str
    runs: List[RunResult] = field(default_factory=list)

    def _mean(self, attribute: str) -> float:
        values = [getattr(run, attribute) for run in self.runs]
        return float(np.mean(values)) if values else float("nan")

    @property
    def accuracy(self) -> OpenWorldAccuracy:
        overall = float(np.mean([r.accuracy.overall for r in self.runs]))
        seen = float(np.mean([r.accuracy.seen for r in self.runs]))
        novel = float(np.mean([r.accuracy.novel for r in self.runs]))
        return OpenWorldAccuracy(overall=overall, seen=seen, novel=novel)

    @property
    def imbalance_rate(self) -> float:
        return self._mean("imbalance_rate")

    @property
    def separation_rate(self) -> float:
        return self._mean("separation_rate")

    @property
    def validation_accuracy(self) -> float:
        return self._mean("validation_accuracy")

    @property
    def silhouette(self) -> float:
        return self._mean("silhouette")


@dataclass
class ExperimentConfig(SerializableConfig):
    """Controls the scale of an experiment sweep.

    ``scale`` shrinks the dataset profiles, ``max_epochs``/``batch_size``
    control the training budget, and ``encoder_kind`` selects GAT (the
    paper's default) or GCN (a faster encoder used by the benchmark suite).
    End-to-end methods get ``end_to_end_epochs`` (paper: a larger budget than
    the two-stage methods); it defaults to three times ``max_epochs``.
    ``sampling_mode`` selects the trainer's mini-batch neighborhood sampling
    (``full`` / ``khop`` / ``sampled``, see
    :class:`repro.core.config.SamplingConfig`).

    ``n_jobs`` != 1 runs the method x dataset x seed grid cells on a
    process pool; ``0`` means every usable core.  Each cell is seeded
    entirely by its own ``(method, dataset, seed)``, so cells are
    independent and the grid result is bit-identical to the serial loop.
    """

    scale: float = 0.35
    max_epochs: int = 8
    batch_size: int = 512
    encoder_kind: str = "gcn"
    seeds: Sequence[int] = (0,)
    labels_per_class: Optional[int] = None
    end_to_end_epochs: Optional[int] = None
    eval_every: int = 0
    sampling_mode: str = "full"
    n_jobs: int = 1

    def __post_init__(self) -> None:
        # JSON round-trips turn the seeds tuple into a list; normalise so
        # from_json(to_json(cfg)) == cfg holds in the serialization matrix.
        self.seeds = tuple(int(seed) for seed in self.seeds)
        if int(self.n_jobs) < 0:
            raise ValueError(
                f"n_jobs must be >= 0 (0 = all cores), got {self.n_jobs}")

    def epochs_for(self, method: str) -> int:
        key = method.lower()
        is_end_to_end = key in METHODS and METHODS.get(key).end_to_end
        if is_end_to_end:
            if self.end_to_end_epochs is not None:
                return self.end_to_end_epochs
            return 3 * self.max_epochs
        return self.max_epochs

    def trainer_config(self, seed: int, method: Optional[str] = None) -> TrainerConfig:
        epochs = self.max_epochs if method is None else self.epochs_for(method)
        return fast_config(
            max_epochs=epochs,
            seed=seed,
            encoder_kind=self.encoder_kind,
            batch_size=self.batch_size,
            eval_every=self.eval_every,
            sampling=SamplingConfig(mode=self.sampling_mode),
        )


def evaluate_trainer(trainer: GraphTrainer, dataset: OpenWorldDataset,
                     method_name: str, seed: int) -> RunResult:
    """Collect the full metric set from a trained model."""
    # One embedding pass feeds prediction and the embedding-space metrics.
    embeddings = trainer.node_embeddings()
    result = trainer.predict(embeddings=embeddings)
    accuracy = trainer.accuracy_of(result)
    test_nodes = dataset.split.test_nodes

    val_nodes = dataset.split.val_nodes
    val_accuracy = open_world_accuracy(
        result.predictions[val_nodes],
        dataset.labels[val_nodes],
        dataset.split.seen_classes,
    ).overall

    imbalance, separation = variance_imbalance_report(
        embeddings[test_nodes],
        dataset.labels[test_nodes],
        dataset.split.seen_classes,
        dataset.split.novel_classes,
    )
    eval_nodes = np.concatenate([val_nodes, test_nodes])
    candidate = score_candidate(
        method_name,
        embeddings,
        result.cluster_result.labels,
        val_accuracy,
        eval_indices=eval_nodes,
        seed=seed,
    )
    return RunResult(
        method=method_name,
        dataset=dataset.name,
        seed=seed,
        accuracy=accuracy,
        validation_accuracy=val_accuracy,
        imbalance_rate=imbalance,
        separation_rate=separation,
        silhouette=candidate.silhouette,
    )


def run_grid_cell(
    method: str,
    dataset_name: str,
    seed: int,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
    openima_overrides: Optional[dict] = None,
) -> RunResult:
    """Train and evaluate one (method, dataset, seed) grid cell.

    The unit of work for both the serial loop and the worker pool; keeping
    it module-level lets it pickle to a process pool (lint rule R9), so both
    paths run the same code, cell for cell.
    """
    dataset = load_open_world_dataset(
        dataset_name,
        seed=seed,
        scale=experiment.scale,
        labels_per_class=experiment.labels_per_class,
    )
    trainer_config = experiment.trainer_config(seed, method=method)
    trainer = METHODS.build(
        method, dataset, config=trainer_config,
        num_novel_classes=num_novel_classes,
        **(openima_overrides or {}),
    )
    trainer.fit()
    return evaluate_trainer(trainer, dataset, method, seed)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(
    cells: List[tuple],
    experiment: ExperimentConfig,
) -> List[RunResult]:
    """Ordered cell results, run on a process pool when ``n_jobs`` != 1.

    ``cells`` are ``(method, dataset_name, seed, num_novel_classes,
    openima_overrides)`` tuples.  Every random draw in a cell flows from
    generators keyed on its own seed, so collecting the futures in cell
    order returns exactly what the serial loop would.  An exception in a
    cell (``KeyboardInterrupt`` included) cancels the queued cells, joins
    the pool and re-raises.  A pool that breaks or cannot start re-runs
    every cell serially.

    Process workers fork from a forkserver, never from the caller: the
    caller may run other threads (e.g. a background server) whose held
    locks a forked child would inherit.  The server preloads this module
    once per process, so later pools start without re-importing numpy as
    spawned workers would (about 2 s per pool on 2 cores; the figure
    commands open one pool per swept parameter value).
    """
    calls = [(method, dataset_name, seed, experiment, num_novel, overrides)
             for method, dataset_name, seed, num_novel, overrides in cells]
    workers = min(int(experiment.n_jobs) or _usable_cores(), len(calls))
    if workers <= 1:
        return [run_grid_cell(*call) for call in calls]
    try:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        try:
            futures = [pool.submit(run_grid_cell, *call) for call in calls]
            return [future.result() for future in futures]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    except (BrokenExecutor, OSError, pickle.PicklingError) as exc:
        _FALLBACKS.inc(reason=type(exc).__name__)
        EVENTS.warning(f"experiment grid fell back to serial: {exc}",
                       source="experiments",
                       error=type(exc).__name__)
        return [run_grid_cell(*call) for call in calls]


def run_method(
    method: str,
    dataset_name: str,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
    openima_overrides: Optional[dict] = None,
) -> AggregatedResult:
    """Train ``method`` on ``dataset_name`` for every configured seed."""
    cells = [(method, dataset_name, seed, num_novel_classes, openima_overrides)
             for seed in experiment.seeds]
    return AggregatedResult(method=method, dataset=dataset_name,
                            runs=_run_cells(cells, experiment))


def run_methods(
    methods: Sequence[str],
    dataset_name: str,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
) -> Dict[str, AggregatedResult]:
    """Run several methods on the same dataset profile.

    The whole method x seed grid goes to :func:`_run_cells` at once, so
    with ``experiment.n_jobs`` != 1 long and short methods interleave
    across workers instead of serializing per method.
    """
    cells = [(method, dataset_name, seed, num_novel_classes, None)
             for method in methods for seed in experiment.seeds]
    grouped: Dict[str, AggregatedResult] = {
        method: AggregatedResult(method=method, dataset=dataset_name)
        for method in methods
    }
    for cell, run in zip(cells, _run_cells(cells, experiment)):
        grouped[cell[0]].runs.append(run)
    return grouped
