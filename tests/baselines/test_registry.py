"""Baselines are reachable through the unified method registry."""

from __future__ import annotations

import pytest

from repro.core.registry import METHODS, available_methods, build_method
from repro.core.trainer import GraphTrainer


PAPER_TABLE3_BASELINES = [
    "oodgat",
    "openwgl",
    "orca-zm",
    "orca",
    "simgcd",
    "openldn",
    "opencon",
    "opencon-two-stage",
    "infonce",
    "infonce+supcon",
    "infonce+supcon+ce",
]


class TestRegistry:
    def test_all_table3_baselines_available(self):
        for name in PAPER_TABLE3_BASELINES:
            assert name in METHODS

    def test_available_baselines_sorted(self):
        names = available_methods()
        assert names == sorted(names)
        assert set(PAPER_TABLE3_BASELINES) <= set(names)

    def test_build_method_case_insensitive(self, small_dataset, tiny_trainer_config):
        trainer = build_method("ORCA", small_dataset, tiny_trainer_config)
        assert isinstance(trainer, GraphTrainer)
        assert trainer.method_name == "ORCA"

    def test_unknown_baseline_raises(self, small_dataset, tiny_trainer_config):
        with pytest.raises(KeyError, match="available"):
            build_method("gcd", small_dataset, tiny_trainer_config)

    def test_num_novel_override_propagates(self, small_dataset, tiny_trainer_config):
        trainer = build_method("infonce", small_dataset, tiny_trainer_config,
                               num_novel_classes=7)
        assert trainer.label_space.num_novel == 7

    def test_method_names_are_distinct(self, small_dataset, tiny_trainer_config):
        names = set()
        for key in PAPER_TABLE3_BASELINES:
            trainer = build_method(key, small_dataset, tiny_trainer_config)
            names.add(trainer.method_name)
        assert len(names) == len(PAPER_TABLE3_BASELINES)
