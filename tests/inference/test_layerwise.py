"""Layer-wise inference parity: chunked evaluation vs ``encoder.embed`` and
vs the dense O(N^2) reference encoders of ``tests/gnn/test_backend_parity.py``.

The acceptance bar is 1e-8 agreement for GCN and GAT, including chunk sizes
that do not divide the node count, ``chunk_size=1``, ``chunk_size > N``, and
a multigraph with duplicate edges and self loops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import GATEncoder, GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.inference import LayerwiseInference
from tests.gnn.test_backend_parity import reference_embed

NUM_NODES = 97  # deliberately prime so no aligned chunk size divides it
NUM_FEATURES = 12

# Odd sizes, a lone-row chunk, an exact fit, and chunk > N.
CHUNK_SIZES = (1, 7, 64, NUM_NODES, NUM_NODES + 13)


@pytest.fixture(scope="module")
def graph() -> Graph:
    rng = np.random.default_rng(3)
    src = rng.integers(NUM_NODES, size=320)
    dst = rng.integers(NUM_NODES, size=320)
    return Graph(
        features=rng.normal(size=(NUM_NODES, NUM_FEATURES)),
        edge_index=symmetrize_edges(np.vstack([src, dst])),
        name="layerwise-parity",
    )


@pytest.fixture(scope="module")
def multigraph(graph) -> Graph:
    """``graph`` plus duplicated directed edges and explicit self loops, shuffled."""
    rng = np.random.default_rng(4)
    duplicates = graph.edge_index[:, rng.integers(graph.num_edges, size=40)]
    loops = np.tile(rng.integers(NUM_NODES, size=10), (2, 1))
    edges = np.hstack([graph.edge_index, duplicates, loops])
    return Graph(features=graph.features,
                 edge_index=edges[:, rng.permutation(edges.shape[1])],
                 name="layerwise-multigraph")


def build_encoder(kind: str):
    if kind == "gcn":
        encoder = GCNEncoder(NUM_FEATURES, hidden_dim=10, out_dim=6, dropout=0.4,
                             rng=np.random.default_rng(1))
    else:
        encoder = GATEncoder(NUM_FEATURES, hidden_dim=8, out_dim=6, num_heads=4,
                             dropout=0.4, rng=np.random.default_rng(2))
    # Perturb every parameter so zero-initialized biases cannot mask a
    # missing term (a trained GCN bias is propagated, not simply added).
    rng = np.random.default_rng(9)
    for param in encoder.parameters():
        param.data = param.data + rng.normal(scale=0.2, size=param.data.shape)
    return encoder


@pytest.mark.parametrize("kind", ["gcn", "gat"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_layerwise_matches_full_embed(graph, multigraph, kind, chunk_size):
    encoder = build_encoder(kind)
    for inputs in (graph, multigraph):
        full = encoder.embed(inputs)
        layerwise = LayerwiseInference(chunk_size=chunk_size).run(encoder, inputs)
        np.testing.assert_allclose(layerwise, full, rtol=0.0, atol=1e-8,
                                   err_msg=inputs.name)


@pytest.mark.parametrize("kind", ["gcn", "gat"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_layerwise_matches_dense_reference(graph, multigraph, kind, chunk_size):
    """The chunked path also agrees with an independent dense computation."""
    encoder = build_encoder(kind)
    for inputs in (graph, multigraph):
        layerwise = LayerwiseInference(chunk_size=chunk_size).run(encoder, inputs)
        np.testing.assert_allclose(layerwise, reference_embed(encoder, inputs),
                                   rtol=0.0, atol=1e-8, err_msg=inputs.name)


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_layerwise_ignores_training_mode_dropout(graph, kind):
    """Layer-wise inference is deterministic even on a train()-mode encoder."""
    encoder = build_encoder(kind)
    encoder.train()
    layerwise = LayerwiseInference(chunk_size=13).run(encoder, graph)
    assert all(module.training for module in encoder.modules())
    np.testing.assert_allclose(layerwise, encoder.embed(graph),
                               rtol=0.0, atol=1e-8)


def test_isolated_node_matches_full(graph):
    """Nodes without incoming edges take the same zero/self-loop path."""
    features = np.random.default_rng(5).normal(size=(30, NUM_FEATURES))
    edges = np.array([[0, 1, 2, 5], [1, 2, 0, 6]])  # nodes 7..29 isolated
    isolated = Graph(features=features, edge_index=symmetrize_edges(edges))
    for kind in ("gcn", "gat"):
        encoder = build_encoder(kind)
        layerwise = LayerwiseInference(chunk_size=4).run(encoder, isolated)
        np.testing.assert_allclose(layerwise, encoder.embed(isolated),
                                   rtol=0.0, atol=1e-8)


def test_invalid_chunk_size_rejected():
    with pytest.raises(ValueError, match="chunk_size"):
        LayerwiseInference(chunk_size=0)


def test_encoder_without_plan_rejected(graph):
    class PlanlessEncoder:
        pass

    with pytest.raises(TypeError, match="layerwise_plan"):
        LayerwiseInference().run(PlanlessEncoder(), graph)
