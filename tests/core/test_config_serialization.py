"""Config dict/JSON round-tripping and strict unknown-key validation.

The matrix below must list every ``@dataclass`` named ``*Config`` in the
package (linter rule R5 plus :class:`TestMatrixCompleteness` enforce this):
a config outside the matrix silently loses round-trip coverage.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil

import pytest

from repro.core.config import (
    ClusteringConfig,
    EncoderConfig,
    InferenceConfig,
    OpenIMAConfig,
    OptimizerConfig,
    SamplingConfig,
    SerializableConfig,
    TrainerConfig,
    fast_config,
)
from repro.experiments.runner import ExperimentConfig
from repro.graphs.generators import SBMConfig
from repro.serve.server import ServeConfig

ALL_CONFIGS = [
    EncoderConfig(kind="gcn", hidden_dim=48),
    OptimizerConfig(learning_rate=3e-3, weight_decay=0.0),
    SamplingConfig(mode="sampled", num_hops=3, fanouts=[5, 5, 5]),
    ClusteringConfig(strategy="online", sample_size=512, birth_threshold=0.1,
                     max_clusters=12),
    fast_config(max_epochs=5, seed=3, encoder_kind="gat"),
    fast_config(sampling=SamplingConfig(mode="khop")),
    fast_config(clustering=ClusteringConfig(strategy="minibatch")),
    OpenIMAConfig(eta=2.5, rho=50.0, large_scale=True, num_novel_classes=4),
    InferenceConfig(mode="layerwise", chunk_size=256, partial_threshold=0.25),
    SBMConfig(num_nodes=120, num_classes=4, homophily=0.7, feature_dim=16),
    ServeConfig(port=0, batch_window_ms=1.5, max_batch=64, warm=False),
    ExperimentConfig(scale=0.25, max_epochs=4, seeds=[1, 2], eval_every=2),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_dict_round_trip(self, config):
        restored = type(config).from_dict(config.to_dict())
        assert restored == config

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_json_round_trip(self, config):
        text = config.to_json()
        json.loads(text)  # valid JSON
        assert type(config).from_json(text) == config

    def test_nested_configs_become_nested_dicts(self):
        data = OpenIMAConfig().to_dict()
        assert isinstance(data["trainer"], dict)
        assert isinstance(data["trainer"]["encoder"], dict)
        assert data["trainer"]["encoder"]["kind"] == "gat"

    def test_partial_dict_uses_defaults(self):
        config = TrainerConfig.from_dict({"max_epochs": 3, "encoder": {"kind": "gcn"}})
        assert config.max_epochs == 3
        assert config.encoder.kind == "gcn"
        assert config.encoder.hidden_dim == EncoderConfig().hidden_dim
        assert config.batch_size == TrainerConfig().batch_size

    def test_nested_field_accepts_config_object(self):
        encoder = EncoderConfig(kind="gcn")
        config = TrainerConfig.from_dict({"encoder": encoder})
        assert config.encoder == encoder


class TestSamplingConfig:
    def test_trainer_config_nests_sampling_dict(self):
        config = TrainerConfig.from_dict(
            {"sampling": {"mode": "khop", "num_hops": 3}})
        assert config.sampling == SamplingConfig(mode="khop", num_hops=3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling mode"):
            SamplingConfig(mode="turbo")

    def test_bad_num_hops_rejected(self):
        with pytest.raises(ValueError, match="num_hops"):
            SamplingConfig(num_hops=0)

    def test_fanout_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one cap per hop"):
            SamplingConfig(mode="sampled", num_hops=2, fanouts=[4])

    def test_sampled_mode_fills_default_fanouts(self):
        config = SamplingConfig(mode="sampled", num_hops=3)
        assert config.fanouts == [10, 10, 10]
        # The filled-in value round-trips.
        assert SamplingConfig.from_dict(config.to_dict()) == config

    def test_full_mode_keeps_fanouts_none(self):
        assert SamplingConfig().fanouts is None


class TestClusteringConfig:
    def test_trainer_config_nests_clustering_dict(self):
        config = TrainerConfig.from_dict(
            {"clustering": {"strategy": "minibatch", "sample_size": 256}})
        assert config.clustering == ClusteringConfig(strategy="minibatch",
                                                     sample_size=256)

    def test_openima_config_nests_clustering_dict(self):
        config = OpenIMAConfig.from_dict(
            {"trainer": {"clustering": {"strategy": "online"}}})
        assert config.trainer.clustering.strategy == "online"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown clustering strategy"):
            ClusteringConfig(strategy="turbo")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            TrainerConfig.from_dict({"clustering": {"warmstart": True}})


class TestValidation:
    def test_unknown_top_level_key_raises(self):
        with pytest.raises(ValueError, match="unknown TrainerConfig keys.*'bogus'"):
            TrainerConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_raises(self):
        with pytest.raises(ValueError, match="unknown EncoderConfig keys"):
            TrainerConfig.from_dict({"encoder": {"hidden": 64}})

    def test_unknown_openima_key_raises(self):
        with pytest.raises(ValueError, match="unknown OpenIMAConfig keys"):
            OpenIMAConfig.from_dict({"etaa": 1.0})

    @pytest.mark.parametrize("config_class, data, message", [
        (TrainerConfig, {"encoder": {"backend": "sparse"}},
         "unknown EncoderConfig keys.*'backend'"),
        (TrainerConfig, {"mini_batch_kmeans": True},
         "unknown TrainerConfig keys.*'mini_batch_kmeans'"),
        (TrainerConfig, {"kmeans_batch_size": 1024},
         "unknown TrainerConfig keys.*'kmeans_batch_size'"),
        (ExperimentConfig, {"backend": "dense"},
         "unknown ExperimentConfig keys.*'backend'"),
        (TrainerConfig, {"clustering": {"warm_start": True}},
         "unknown ClusteringConfig keys.*'warm_start'"),
        (TrainerConfig, {"clustering": {"refresh_tolerance": 8}},
         "unknown ClusteringConfig keys.*'refresh_tolerance'"),
        (TrainerConfig, {"clustering": {"seed": 5}},
         "unknown ClusteringConfig keys.*'seed'"),
        (TrainerConfig, {"inference": {"cache": False}},
         "unknown InferenceConfig keys.*'cache'"),
        (TrainerConfig, {"inference": {"partial_refresh": False}},
         "unknown InferenceConfig keys.*'partial_refresh'"),
        (TrainerConfig, {"sampling": {"seed": 2}},
         "unknown SamplingConfig keys.*'seed'"),
        (ExperimentConfig, {"parallel_backend": "threads"},
         "unknown ExperimentConfig keys.*'parallel_backend'"),
    ], ids=["encoder.backend", "trainer.mini_batch_kmeans",
            "trainer.kmeans_batch_size", "experiment.backend",
            "clustering.warm_start", "clustering.refresh_tolerance",
            "clustering.seed", "inference.cache", "inference.partial_refresh",
            "sampling.seed", "experiment.parallel_backend"])
    def test_removed_option_rejected(self, config_class, data, message):
        """Removed options fail loudly, not silently: the dense backend, the
        legacy K-Means switches, and the clustering, inference, sampling and
        grid-pool settings that no caller set."""
        with pytest.raises(ValueError, match=message):
            config_class.from_dict(data)

    def test_error_names_valid_keys(self):
        with pytest.raises(ValueError, match="valid keys"):
            OptimizerConfig.from_dict({"lr": 0.1})

    def test_non_mapping_raises(self):
        with pytest.raises(TypeError, match="expects a mapping"):
            TrainerConfig.from_dict([("max_epochs", 3)])

    def test_with_updates_on_all_configs(self):
        assert EncoderConfig().with_updates(kind="gcn").kind == "gcn"
        assert OptimizerConfig().with_updates(learning_rate=1.0).learning_rate == 1.0
        assert TrainerConfig().with_updates(seed=9).seed == 9
        assert OpenIMAConfig().with_updates(eta=3.0).eta == 3.0


def _discover_config_classes():
    """Every ``@dataclass`` named ``*Config`` defined anywhere under repro."""
    import repro

    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if ".violations" in info.name:
            continue  # quarantined sanitizer demos, not production code
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and name.endswith("Config")
                    and name != "SerializableConfig"
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == info.name):
                found[name] = obj
    return found


class TestMatrixCompleteness:
    """ALL_CONFIGS stays in sync with the package — no config left behind."""

    def test_every_config_dataclass_subclasses_serializable(self):
        rogue = [name for name, cls in _discover_config_classes().items()
                 if not issubclass(cls, SerializableConfig)]
        assert not rogue, (
            f"config dataclasses outside SerializableConfig: {rogue} "
            f"(linter rule R5 should have caught this)")

    def test_every_config_dataclass_is_in_matrix(self):
        covered = {type(config).__name__ for config in ALL_CONFIGS}
        missing = sorted(set(_discover_config_classes()) - covered)
        assert not missing, (
            f"config classes missing from ALL_CONFIGS round-trip matrix: "
            f"{missing}")
