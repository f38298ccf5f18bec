"""Tests for the experiment runner (integration-level, small budgets)."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.openima import OpenIMATrainer
from repro.core.registry import build_method
from repro.baselines.orca import ORCATrainer
from repro.experiments import runner
from repro.experiments.runner import (
    AggregatedResult,
    ExperimentConfig,
    RunResult,
    _run_cells,
    evaluate_trainer,
    run_method,
    run_methods,
)
from repro.obs import EVENTS, REGISTRY
from repro.datasets.synthetic import load_open_world_dataset
from repro.metrics.accuracy import OpenWorldAccuracy


TINY = ExperimentConfig(scale=0.15, max_epochs=1, batch_size=128, encoder_kind="gcn", seeds=(0,))


class TestBuildMethod:
    def test_builds_openima(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        assert isinstance(trainer, OpenIMATrainer)

    def test_builds_baseline(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("orca", dataset, TINY.trainer_config(0))
        assert isinstance(trainer, ORCATrainer)

    def test_openima_overrides_applied(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("openima", dataset, TINY.trainer_config(0),
                               eta=20.0, rho=25.0)
        assert trainer.openima_config.eta == 20.0
        assert trainer.openima_config.rho == 25.0

    def test_large_scale_inferred_from_dataset(self):
        dataset = load_open_world_dataset("ogbn-arxiv", seed=0, scale=0.05)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        assert trainer.openima_config.large_scale is True

    def test_unknown_method_raises(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        with pytest.raises(KeyError):
            build_method("gcd", dataset, TINY.trainer_config(0))


class TestRunMethod:
    def test_run_result_fields(self):
        result = run_method("infonce", "citeseer", TINY)
        assert isinstance(result, AggregatedResult)
        assert len(result.runs) == 1
        run = result.runs[0]
        assert isinstance(run, RunResult)
        assert 0.0 <= run.accuracy.overall <= 1.0
        assert run.imbalance_rate >= 1.0 or np.isnan(run.imbalance_rate)
        assert run.separation_rate >= 0.0 or np.isnan(run.separation_rate)
        data = run.as_dict()
        assert data["method"] == "infonce" and data["dataset"] == "citeseer"

    def test_multiple_seeds_aggregate(self):
        config = ExperimentConfig(scale=0.15, max_epochs=1, batch_size=128,
                                  encoder_kind="gcn", seeds=(0, 1))
        result = run_method("infonce", "citeseer", config)
        assert len(result.runs) == 2
        assert isinstance(result.accuracy, OpenWorldAccuracy)
        mean_overall = np.mean([r.accuracy.overall for r in result.runs])
        assert result.accuracy.overall == pytest.approx(mean_overall)

    def test_run_methods_multiple(self):
        results = run_methods(["infonce", "openima"], "citeseer", TINY)
        assert set(results) == {"infonce", "openima"}


class TestEvaluateTrainer:
    def test_metrics_from_trained_model(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        trainer.fit()
        run = evaluate_trainer(trainer, dataset, "openima", seed=0)
        assert run.method == "openima"
        assert np.isfinite(run.silhouette)
        assert 0.0 <= run.validation_accuracy <= 1.0


class TestExperimentConfig:
    def test_trainer_config_uses_seed(self):
        config = ExperimentConfig(max_epochs=3, encoder_kind="gcn")
        trainer_config = config.trainer_config(9)
        assert trainer_config.seed == 9
        assert trainer_config.max_epochs == 3
        assert trainer_config.encoder.kind == "gcn"


class TestEpochBudgets:
    def test_end_to_end_methods_get_larger_budget(self):
        config = ExperimentConfig(max_epochs=5)
        assert config.epochs_for("infonce") == 5
        assert config.epochs_for("openima") == 5
        assert config.epochs_for("orca") == 15
        assert config.epochs_for("SimGCD") == 15

    def test_explicit_end_to_end_epochs(self):
        config = ExperimentConfig(max_epochs=5, end_to_end_epochs=7)
        assert config.epochs_for("orca") == 7
        assert config.trainer_config(0, method="orca").max_epochs == 7
        assert config.trainer_config(0, method="openima").max_epochs == 5


# ----------------------------------------------------------------------
# Grid cells on a worker pool
# ----------------------------------------------------------------------
GRID_EXPERIMENT = dict(scale=0.1, max_epochs=1, batch_size=128,
                       encoder_kind="gcn", seeds=(0, 1))
POOLED_EXPERIMENT = ExperimentConfig(**GRID_EXPERIMENT, n_jobs=2)
GRID_CELLS = [(method, dataset, seed, None, None)
              for method in ("infonce", "openima")
              for dataset in ("citeseer", "amazon-photos")
              for seed in (0, 1)]


# Stand-ins for run_grid_cell; module-level so they pickle to process pools
# (lint rule R9).
def crash_in_child_cell(method, dataset_name, seed, experiment,
                        num_novel_classes, openima_overrides):
    # Hard-kill only inside a pool worker process; the serial rerun in the
    # parent succeeds.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return (method, dataset_name, seed)


def interrupting_cell(method, dataset_name, seed, experiment,
                      num_novel_classes, openima_overrides):
    if seed == 1:
        raise KeyboardInterrupt
    time.sleep(0.05)
    return seed


def worker_identity_cell(method, dataset_name, seed, experiment,
                         num_novel_classes, openima_overrides):
    return (os.getpid(), threading.get_ident(), num_novel_classes,
            openima_overrides)


class RecordingProcessPool(ProcessPoolExecutor):
    sizes: list = []

    def __init__(self, max_workers, mp_context):
        RecordingProcessPool.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, mp_context=mp_context)


def wait_for_no_children() -> None:
    deadline = time.time() + 5.0
    while multiprocessing.active_children() and time.time() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestExperimentGridParity:
    """The 2 x 2 x 2 method x dataset x seed grid is pool-invariant."""

    def test_grid_cells_bitwise_match_serial(self):
        serial_runs = _run_cells(GRID_CELLS, ExperimentConfig(**GRID_EXPERIMENT))
        runs = _run_cells(GRID_CELLS, POOLED_EXPERIMENT)
        assert [run.as_dict() for run in runs] == [
            run.as_dict() for run in serial_runs]


class TestPoolDispatch:
    def test_openima_overrides_run_on_pool_workers(self, monkeypatch):
        overrides = {"eta": 2.0}
        serial = run_method("openima", "citeseer",
                            ExperimentConfig(**GRID_EXPERIMENT),
                            openima_overrides=overrides)
        pooled = run_method("openima", "citeseer",
                            ExperimentConfig(**GRID_EXPERIMENT, n_jobs=2),
                            openima_overrides=overrides)
        assert [run.as_dict() for run in pooled.runs] == [
            run.as_dict() for run in serial.runs]

        monkeypatch.setattr(runner, "run_grid_cell", worker_identity_cell)
        tagged = run_method("openima", "citeseer", POOLED_EXPERIMENT,
                            openima_overrides=overrides)
        assert [(pid != os.getpid(), extra) for pid, _, _, extra
                in tagged.runs] == [(True, overrides)] * 2

    def test_num_novel_classes_runs_on_pool_workers(self, monkeypatch):
        monkeypatch.setattr(runner, "run_grid_cell", worker_identity_cell)
        results = run_methods(["infonce", "openima"], "citeseer",
                              POOLED_EXPERIMENT, num_novel_classes=3)
        runs = [run for method in ("infonce", "openima")
                for run in results[method].runs]
        assert [(pid != os.getpid(), novel) for pid, _, novel, _
                in runs] == [(True, 3)] * 4

    def test_one_job_runs_inline(self, monkeypatch):
        monkeypatch.setattr(runner, "run_grid_cell", worker_identity_cell)
        runs = _run_cells(GRID_CELLS, ExperimentConfig(**GRID_EXPERIMENT, n_jobs=1))
        assert {run[:2] for run in runs} == {
            (os.getpid(), threading.get_ident())}

    def test_zero_jobs_uses_every_usable_core(self, monkeypatch):
        monkeypatch.setattr(runner, "run_grid_cell", worker_identity_cell)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingProcessPool)
        RecordingProcessPool.sizes = []
        _run_cells(GRID_CELLS, ExperimentConfig(**GRID_EXPERIMENT, n_jobs=0))
        workers = min(len(os.sched_getaffinity(0)), len(GRID_CELLS))
        assert RecordingProcessPool.sizes == ([workers] if workers > 1 else [])
        wait_for_no_children()


class TestCrashFallback:
    def test_worker_crash_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(runner, "run_grid_cell", crash_in_child_cell)
        fallbacks = REGISTRY.get("repro_parallel_serial_fallbacks_total")
        before = fallbacks.value(reason="BrokenProcessPool")
        results = _run_cells(GRID_CELLS, POOLED_EXPERIMENT)
        # Partials are discarded; the serial rerun returns the exact answer.
        assert results == [cell[:3] for cell in GRID_CELLS]
        assert fallbacks.value(reason="BrokenProcessPool") == before + 1
        warnings = [event for event in EVENTS.snapshot(level="warning")
                    if event["source"] == "experiments"]
        assert warnings, "serial fallback must be logged to the event ring"
        assert "fell back to serial" in warnings[-1]["message"]
        wait_for_no_children()


class TestInterrupt:
    def test_keyboard_interrupt_cleans_up_and_reraises(self, monkeypatch):
        monkeypatch.setattr(runner, "run_grid_cell", interrupting_cell)
        fallbacks = REGISTRY.get("repro_parallel_serial_fallbacks_total")
        before = fallbacks.total()
        with pytest.raises(KeyboardInterrupt):
            _run_cells(GRID_CELLS, POOLED_EXPERIMENT)
        wait_for_no_children()
        assert fallbacks.total() == before
