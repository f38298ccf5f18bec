"""The run/resume/list-* CLI subcommands (table/fig commands are tested in
test_persistence_cli.py)."""

from __future__ import annotations

from typing import ClassVar

import numpy as np
import pytest

from repro.core.registry import available_methods
from repro.datasets.registry import available_datasets
from repro.experiments.cli import build_parser, main, parse_set_overrides

TINY_RUN = ["run", "--method", "openima", "--dataset", "citeseer",
            "--epochs", "1", "--scale", "0.15"]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(TINY_RUN)
        assert args.experiment == "run"
        assert args.backend == "sparse"
        assert args.eval_every == 0
        assert args.seed == 0

    def test_run_requires_method_and_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "openima"])

    def test_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(TINY_RUN + ["--backend", "cuda"])

    def test_tables_accept_backend_and_eval_every(self):
        args = build_parser().parse_args(
            ["table3", "--backend", "dense", "--eval-every", "2"])
        assert args.backend == "dense"
        assert args.eval_every == 2

    def test_grid_pool_flags_only_on_table_and_figure_commands(self):
        args = build_parser().parse_args(
            ["fig2", "--n-jobs", "0", "--parallel-backend", "threads"])
        assert (args.n_jobs, args.parallel_backend) == (0, "threads")
        for command in (TINY_RUN, ["stream", "--dataset", "citeseer"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--n-jobs", "2"])


class TestSetOverrides:
    def test_dotted_keys_nest(self):
        overrides = parse_set_overrides(
            ["optimizer.learning_rate=0.01", "eta=2.0", "encoder.kind=gcn"])
        assert overrides == {
            "optimizer": {"learning_rate": 0.01},
            "eta": 2.0,
            "encoder": {"kind": "gcn"},
        }

    def test_json_and_string_values(self):
        overrides = parse_set_overrides(["a=true", "b=hello", "c=[1,2]"])
        assert overrides == {"a": True, "b": "hello", "c": [1, 2]}

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_set_overrides(["eta"])


class TestRunCommand:
    def test_run_openima_end_to_end(self, capsys):
        result = main(TINY_RUN)
        captured = capsys.readouterr()
        assert "OpenIMA" in captured.out
        assert result["method"] == "openima"
        assert result["epochs_trained"] == 1
        assert 0.0 <= result["accuracy"]["all"] <= 1.0

    def test_run_applies_set_overrides(self):
        result = main(TINY_RUN + ["--set", "eta=0.0", "--set",
                                  "trainer.temperature=0.5"])
        assert result["method"] == "openima"

    def test_run_baseline_with_method_param_override(self):
        result = main(["run", "--method", "orca", "--dataset", "citeseer",
                       "--epochs", "1", "--scale", "0.15",
                       "--set", "margin_scale=0.5"])
        assert result["method"] == "orca"

    def test_run_eval_every_records_evaluations(self):
        result = main(TINY_RUN + ["--eval-every", "1"])
        assert len(result["evaluations"]) == 1

    def test_run_dense_backend(self):
        result = main(TINY_RUN + ["--backend", "dense"])
        assert result["epochs_trained"] == 1

    def test_run_khop_sampling_flag(self):
        result = main(TINY_RUN + ["--sampling-mode", "khop"])
        assert result["epochs_trained"] == 1
        assert np.isfinite(result["accuracy"]["all"])

    def test_run_sampling_via_set_override(self):
        result = main(["run", "--method", "infonce", "--dataset", "citeseer",
                       "--epochs", "1", "--scale", "0.15",
                       "--set", "sampling.mode=sampled",
                       "--set", "sampling.fanouts=[4,4]"])
        assert result["epochs_trained"] == 1

    def test_sampling_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(TINY_RUN + ["--sampling-mode", "everything"])
        args = build_parser().parse_args(["table3", "--sampling-mode", "khop"])
        assert args.sampling_mode == "khop"

    def test_unknown_set_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown OpenIMAConfig keys"):
            main(TINY_RUN + ["--set", "etaa=1.0"])

    @pytest.mark.parametrize("method", sorted(available_methods()))
    def test_every_registered_method_runnable(self, method):
        result = main(["run", "--method", method, "--dataset", "citeseer",
                       "--epochs", "1", "--scale", "0.15"])
        assert result["method"] == method
        assert result["epochs_trained"] >= 1
        assert np.isfinite(result["accuracy"]["all"])


class TestResumeCommand:
    def test_save_then_resume(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        first = main(TINY_RUN + ["--save", str(checkpoint)])
        assert (checkpoint / "manifest.json").exists()
        resumed = main(["resume", str(checkpoint), "--epochs", "2",
                        "--save", str(tmp_path / "ckpt2")])
        assert resumed["epochs_trained"] == 2
        assert resumed["losses"][0] == pytest.approx(first["losses"][0])
        assert (tmp_path / "ckpt2" / "manifest.json").exists()

    def test_resume_overwrites_source_by_default(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        main(TINY_RUN + ["--save", str(checkpoint)])
        resumed = main(["resume", str(checkpoint), "--epochs", "2"])
        assert resumed["epochs_trained"] == 2
        again = main(["resume", str(checkpoint)])
        # Already at the target: no further epochs are trained.
        assert again["epochs_trained"] == 2


class TestEmbedPredictCommands:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "ckpt"
        main(TINY_RUN + ["--save", str(path)])
        return path

    def test_embed_writes_npz(self, checkpoint, tmp_path):
        target = tmp_path / "emb.npz"
        result = main(["embed", str(checkpoint), str(target)])
        embeddings = np.load(target)["embeddings"]
        assert list(embeddings.shape) == result["shape"]
        assert embeddings.shape[1] > 0
        assert result["inference_mode"] == "full"  # tiny graph, auto mode

    def test_embed_layerwise_matches_full(self, checkpoint, tmp_path):
        full_path = tmp_path / "full.npz"
        layerwise_path = tmp_path / "layerwise.npz"
        main(["embed", str(checkpoint), str(full_path)])
        result = main(["embed", str(checkpoint), str(layerwise_path),
                       "--set", "inference.mode=layerwise",
                       "--set", "inference.chunk_size=33"])
        assert result["inference_mode"] == "layerwise"
        np.testing.assert_allclose(np.load(layerwise_path)["embeddings"],
                                   np.load(full_path)["embeddings"],
                                   rtol=0.0, atol=1e-8)

    def test_predict_writes_predictions_and_accuracy(self, checkpoint, tmp_path):
        target = tmp_path / "pred.npz"
        result = main(["predict", str(checkpoint),
                       "--predictions-npz", str(target),
                       "--output", str(tmp_path / "pred.json"),
                       "--set", "inference.mode=layerwise"])
        predictions = np.load(target)["predictions"]
        assert predictions.tolist() == result["predictions"]
        assert 0.0 <= result["accuracy"]["all"] <= 1.0
        assert result["inference_mode"] == "layerwise"
        assert (tmp_path / "pred.json").exists()

    def test_predict_without_json_output_skips_boxed_list(self, checkpoint):
        result = main(["predict", str(checkpoint)])
        assert "predictions" not in result
        assert 0.0 <= result["accuracy"]["all"] <= 1.0

    def test_non_inference_override_rejected(self, checkpoint, tmp_path):
        with pytest.raises(ValueError, match="inference"):
            main(["embed", str(checkpoint), str(tmp_path / "emb.npz"),
                  "--set", "eta=2.0"])

    def test_bare_inference_override_rejected(self, checkpoint, tmp_path):
        # `inference=layerwise` (missing the dotted key) must fail with the
        # same clean error, not an AttributeError inside the merge.
        with pytest.raises(ValueError, match="inference.mode=layerwise"):
            main(["embed", str(checkpoint), str(tmp_path / "emb.npz"),
                  "--set", "inference=layerwise"])

    def test_bad_inference_mode_fails_loudly(self, checkpoint, tmp_path):
        with pytest.raises(ValueError, match="inference mode"):
            main(["embed", str(checkpoint), str(tmp_path / "emb.npz"),
                  "--set", "inference.mode=warp"])


class TestListCommands:
    def test_list_methods(self, capsys):
        result = main(["list-methods"])
        captured = capsys.readouterr()
        assert set(row["name"] for row in result["methods"]) == set(available_methods())
        assert "openima" in captured.out
        assert "end-to-end" in captured.out and "two-stage" in captured.out

    def test_list_datasets(self, capsys):
        result = main(["list-datasets"])
        captured = capsys.readouterr()
        assert set(row["name"] for row in result["datasets"]) == set(available_datasets())
        assert "ogbn-products" in captured.out

    def test_output_flag_writes_json(self, tmp_path):
        from repro.experiments.persistence import load_results

        main(["list-methods", "--output", str(tmp_path / "methods.json")])
        loaded = load_results(tmp_path / "methods.json")
        assert any(row["name"] == "openima" for row in loaded["methods"])


class TestClusteringOverrides:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "ckpt"
        main(TINY_RUN + ["--save", str(path)])
        return path

    def test_run_clustering_strategy_via_set(self, tmp_path):
        path = tmp_path / "mb-ckpt"
        result = main(TINY_RUN + ["--set", "trainer.clustering.strategy=minibatch",
                                  "--set", "trainer.clustering.sample_size=64",
                                  "--save", str(path)])
        assert result["epochs_trained"] == 1
        resumed = main(["resume", str(path), "--epochs", "2"])
        assert resumed["epochs_trained"] == 2

    def test_run_unknown_clustering_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            main(TINY_RUN + ["--set", "trainer.clustering.stratgy=online"])

    def test_run_unknown_clustering_strategy_fails_loudly(self):
        with pytest.raises(ValueError, match="clustering strategy"):
            main(TINY_RUN + ["--set", "trainer.clustering.strategy=spectral"])

    def test_predict_accepts_clustering_override(self, checkpoint):
        result = main(["predict", str(checkpoint),
                       "--set", "clustering.strategy=minibatch",
                       "--set", "clustering.sample_size=64"])
        assert 0.0 <= result["accuracy"]["all"] <= 1.0

    def test_predict_rejects_unknown_clustering_key(self, checkpoint):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            main(["predict", str(checkpoint),
                  "--set", "clustering.stratgy=minibatch"])

    def test_embed_rejects_clustering_override(self, checkpoint, tmp_path):
        # embed never clusters; only inference.* is meaningful there.
        with pytest.raises(ValueError, match="inference"):
            main(["embed", str(checkpoint), str(tmp_path / "emb.npz"),
                  "--set", "clustering.strategy=minibatch"])

    def test_bare_clustering_override_rejected(self, checkpoint):
        with pytest.raises(ValueError, match="clustering.strategy=minibatch"):
            main(["predict", str(checkpoint), "--set", "clustering=minibatch"])


class TestStreamCommand:
    TINY_STREAM: ClassVar[list] = ["stream", "--dataset", "citeseer", "--scale", "0.15",
                   "--epochs", "1", "--steps", "3"]

    def test_stream_end_to_end(self, capsys):
        result = main(self.TINY_STREAM)
        captured = capsys.readouterr()
        assert "prequential" in captured.out
        assert "step" in captured.out and "refresh" in captured.out
        assert result["method"] == "openima"
        assert result["scenario"]["num_steps"] == 3
        assert len(result["steps"]) == 3
        summary = result["summary"]
        assert 0.0 <= summary["prequential"]["overall"] <= 1.0
        assert summary["partial_refresh_steps"] + summary["full_refresh_steps"] == 3
        # Every arrival outside the base graph was scored exactly once.
        assert summary["prequential"]["num_scored"] == (
            result["scenario"]["total_nodes"] - result["scenario"]["base_nodes"])

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(self.TINY_STREAM)
        assert args.experiment == "stream"
        assert args.steps == 3
        assert args.birth_threshold == pytest.approx(0.2)
        assert args.max_clusters is None

    def test_stream_output_flag_writes_json(self, tmp_path):
        from repro.experiments.persistence import load_results

        path = tmp_path / "stream.json"
        main(self.TINY_STREAM + ["--output", str(path)])
        loaded = load_results(path)
        assert loaded["scenario"]["num_steps"] == 3

    def test_stream_birth_disabled_via_flag(self):
        result = main(self.TINY_STREAM + ["--birth-threshold", "-1"])
        summary = result["summary"]
        assert summary["first_birth_step"] is None
        assert summary["num_clusters_end"] == summary["num_clusters_start"]
