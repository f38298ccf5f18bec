"""Experiment harness: runners, table builders, figure builders, reporting."""

from .figures import FIGURE1B_METHODS, build_figure1b, build_figure2
from .persistence import accuracy_grid, load_results, save_results
from .reporting import format_accuracy_table, format_table, percent
from .runner import (
    AggregatedResult,
    ExperimentConfig,
    RunResult,
    evaluate_trainer,
    run_method,
    run_methods,
)
from .tables import (
    TABLE3_DATASETS,
    TABLE3_METHODS,
    TABLE4_DATASETS,
    TABLE4_METHODS,
    TABLE5_VARIANTS,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    build_table6,
    build_table7,
)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "AggregatedResult",
    "run_method",
    "run_methods",
    "evaluate_trainer",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
    "build_table6",
    "build_table7",
    "build_figure1b",
    "build_figure2",
    "TABLE3_DATASETS",
    "TABLE3_METHODS",
    "TABLE4_DATASETS",
    "TABLE4_METHODS",
    "TABLE5_VARIANTS",
    "FIGURE1B_METHODS",
    "format_table",
    "format_accuracy_table",
    "percent",
    "save_results",
    "load_results",
    "accuracy_grid",
]
