"""Unified method registry: completeness, metadata, and construction."""

from __future__ import annotations

import pytest

from repro.core.callbacks import Callback
from repro.core.config import OpenIMAConfig
from repro.core.openima import OpenIMATrainer
from repro.core.registry import (
    METHODS,
    MethodSpec,
    available_methods,
    build_method,
    get_method,
)
from repro.core.trainer import GraphTrainer

#: OpenIMA plus the paper's eleven baselines.
ALL_METHODS = [
    "openima",
    "oodgat",
    "openwgl",
    "orca",
    "orca-zm",
    "simgcd",
    "openldn",
    "opencon",
    "opencon-two-stage",
    "infonce",
    "infonce+supcon",
    "infonce+supcon+ce",
]

END_TO_END = {
    "oodgat", "openwgl", "orca", "orca-zm", "simgcd", "openldn",
    "opencon", "opencon-two-stage",
}


class TestCompleteness:
    def test_all_twelve_methods_registered(self):
        assert set(available_methods()) == set(ALL_METHODS)
        assert len(available_methods()) == 12

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_every_method_constructible_by_name(self, name, small_dataset,
                                                tiny_trainer_config):
        trainer = build_method(name, small_dataset, tiny_trainer_config)
        assert isinstance(trainer, GraphTrainer)
        assert trainer._method_key == name

    def test_display_names_distinct(self):
        names = [get_method(m).display_name for m in ALL_METHODS]
        assert len(set(names)) == len(names)

    def test_case_insensitive_lookup(self):
        assert get_method("OpenIMA") is get_method("openima")
        assert "ORCA" in METHODS

    def test_unknown_method_raises_with_available(self):
        with pytest.raises(KeyError, match="available"):
            get_method("gcd")


class TestMetadata:
    def test_end_to_end_flags_match_paper(self):
        for name in ALL_METHODS:
            assert get_method(name).end_to_end == (name in END_TO_END), name

    def test_epoch_budgets(self):
        assert get_method("openima").default_epochs == 20
        assert get_method("orca").default_epochs == 50
        assert get_method("simgcd").default_epochs == 50
        assert get_method("openldn").default_epochs == 100
        assert get_method("infonce").default_epochs == 20

    def test_kind_string(self):
        assert get_method("openima").kind == "two-stage"
        assert get_method("orca").kind == "end-to-end"

    def test_openima_uses_custom_config_class(self):
        spec = get_method("openima")
        assert spec.config_cls is OpenIMAConfig
        assert spec.builder is not None

    def test_descriptions_present(self):
        for name in ALL_METHODS:
            assert get_method(name).description, name


class TestConstruction:
    def test_openima_without_special_casing(self, small_dataset, tiny_trainer_config):
        trainer = build_method("openima", small_dataset, tiny_trainer_config)
        assert isinstance(trainer, OpenIMATrainer)
        assert trainer.openima_config.trainer == tiny_trainer_config

    def test_openima_accepts_full_config(self, small_dataset, tiny_trainer_config):
        config = OpenIMAConfig(trainer=tiny_trainer_config, eta=3.0)
        trainer = build_method("openima", small_dataset, config)
        assert trainer.openima_config.eta == 3.0

    def test_openima_config_overrides(self, small_dataset, tiny_trainer_config):
        trainer = build_method("openima", small_dataset, tiny_trainer_config,
                               eta=20.0, rho=25.0)
        assert trainer.openima_config.eta == 20.0
        assert trainer.openima_config.rho == 25.0

    def test_baseline_kwargs_recorded_for_checkpointing(self, small_dataset,
                                                        tiny_trainer_config):
        trainer = build_method("orca", small_dataset, tiny_trainer_config,
                               margin_scale=0.5)
        assert trainer.margin_scale == 0.5
        assert trainer._method_kwargs == {"margin_scale": 0.5}

    def test_num_novel_override(self, small_dataset, tiny_trainer_config):
        for name in ("openima", "infonce"):
            trainer = build_method(name, small_dataset, tiny_trainer_config,
                                   num_novel_classes=7)
            assert trainer.label_space.num_novel == 7

    def test_duplicate_registration_rejected(self):
        spec = get_method("orca")
        with pytest.raises(ValueError, match="already registered"):
            METHODS.register(MethodSpec(name="orca", trainer_cls=spec.trainer_cls,
                                        display_name="dup"))

    def test_case_colliding_registration_rejected(self):
        # register() normalizes keys to lower-case, so a mixed-case duplicate
        # collides instead of creating an unreachable second spec.
        spec = get_method("orca")
        with pytest.raises(ValueError, match="already registered"):
            METHODS.register(MethodSpec(name="ORCA", trainer_cls=spec.trainer_cls,
                                        display_name="dup"))

    def test_wrong_config_type_rejected(self, small_dataset):
        with pytest.raises(TypeError, match="TrainerConfig"):
            build_method("orca", small_dataset, OpenIMAConfig())


class TrainingModeRecorder(Callback):
    def __init__(self):
        self.modes = []

    def on_epoch_start(self, trainer, epoch):
        self.modes.append(trainer.encoder.training)


class TestTrainingMode:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_every_epoch_starts_in_training_mode(self, name, small_dataset,
                                                 tiny_trainer_config):
        """Evaluating between epochs must not leave dropout switched off."""
        recorder = TrainingModeRecorder()
        config = tiny_trainer_config.with_updates(max_epochs=3, eval_every=1)
        build_method(name, small_dataset, config).fit(callbacks=[recorder])
        assert recorder.modes == [True, True, True]
