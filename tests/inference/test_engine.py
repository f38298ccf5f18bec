"""InferenceEngine: mode policy, caching behavior, and config validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import InferenceConfig, TrainerConfig
from repro.gnn import GATEncoder, GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.inference import InferenceEngine
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def graph() -> Graph:
    rng = np.random.default_rng(11)
    src = rng.integers(40, size=120)
    dst = rng.integers(40, size=120)
    return Graph(features=rng.normal(size=(40, 8)),
                 edge_index=symmetrize_edges(np.vstack([src, dst])))


@pytest.fixture()
def encoder() -> GCNEncoder:
    return GCNEncoder(8, hidden_dim=6, out_dim=4, dropout=0.0,
                      rng=np.random.default_rng(0))


class TestConfig:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.mode == "auto"
        assert config.partial_threshold == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="inference mode"):
            InferenceConfig(mode="chunky")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            InferenceConfig(chunk_size=0)

    def test_round_trip_inside_trainer_config(self):
        config = TrainerConfig(
            inference=InferenceConfig(mode="layerwise", chunk_size=123,
                                      partial_threshold=0.3))
        restored = TrainerConfig.from_dict(config.to_dict())
        assert restored.inference == config.inference

    def test_trainer_config_without_inference_section_uses_defaults(self):
        """Legacy manifests predate the inference section and must load."""
        data = TrainerConfig().to_dict()
        del data["inference"]
        assert TrainerConfig.from_dict(data).inference == InferenceConfig()


class TestModePolicy:
    def test_explicit_modes(self, encoder, graph):
        assert InferenceEngine(InferenceConfig(mode="full")).resolve_mode(
            encoder, graph) == "full"
        assert InferenceEngine(InferenceConfig(mode="layerwise")).resolve_mode(
            encoder, graph) == "layerwise"

    def test_auto_switches_on_graph_size(self, encoder, graph):
        small = InferenceEngine(InferenceConfig(mode="auto", auto_threshold=1000))
        large = InferenceEngine(InferenceConfig(mode="auto", auto_threshold=10))
        assert small.resolve_mode(encoder, graph) == "full"
        assert large.resolve_mode(encoder, graph) == "layerwise"

    def test_auto_falls_back_without_layerwise_plan(self, graph):
        class PlanlessEncoder:
            def embed(self, graph):
                return np.zeros((graph.num_nodes, 2))

        engine = InferenceEngine(InferenceConfig(mode="auto", auto_threshold=1))
        assert engine.resolve_mode(PlanlessEncoder(), graph) == "full"


class TestEmbeddings:
    @pytest.mark.parametrize("mode", ["full", "layerwise"])
    @pytest.mark.parametrize("encoder_kind", ["gcn", "gat"])
    def test_matches_embed(self, graph, mode, encoder_kind):
        if encoder_kind == "gcn":
            enc = GCNEncoder(8, hidden_dim=6, out_dim=4, dropout=0.0,
                             rng=np.random.default_rng(0))
        else:
            enc = GATEncoder(8, hidden_dim=6, out_dim=4, num_heads=2,
                             dropout=0.0, rng=np.random.default_rng(0))
        engine = InferenceEngine(InferenceConfig(mode=mode, chunk_size=7))
        np.testing.assert_allclose(engine.embeddings(enc, graph),
                                   enc.embed(graph), rtol=0.0, atol=1e-8)

    def test_repeated_calls_use_cache(self, encoder, graph):
        engine = InferenceEngine(InferenceConfig(mode="full"))
        first = engine.embeddings(encoder, graph)
        second = engine.embeddings(encoder, graph)
        assert first is second
        assert engine.forward_count == 1
        assert engine.cache_hits == 1

    def test_parameter_update_forces_recompute(self, encoder, graph):
        engine = InferenceEngine(InferenceConfig(mode="full"))
        first = engine.embeddings(encoder, graph)
        out = encoder(graph)
        (out * out).sum().backward()
        Adam(encoder.parameters(), lr=0.5).step()
        second = engine.embeddings(encoder, graph)
        assert engine.forward_count == 2
        assert np.abs(np.asarray(first) - np.asarray(second)).max() > 0

    def test_invalidate_drops_entry(self, encoder, graph):
        engine = InferenceEngine()
        engine.embeddings(encoder, graph)
        engine.invalidate()
        engine.embeddings(encoder, graph)
        assert engine.forward_count == 2

    def test_stats_counters(self, encoder, graph):
        engine = InferenceEngine()
        engine.embeddings(encoder, graph)
        engine.embeddings(encoder, graph)
        assert engine.stats() == {
            "forwards": 1, "cache_hits": 1, "cache_misses": 1,
            "partial_refreshes": 0, "full_refreshes": 0}
