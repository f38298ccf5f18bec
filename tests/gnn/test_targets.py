"""The encoders' last layer run for a set of targets: ``forward(graph, targets)``.

Training runs the last layer for a batch's nodes only.  In train mode and
from the same generator state, ``encoder(graph, targets)`` must equal
``encoder(graph).gather_rows(targets)`` bit for bit: the output, every
parameter gradient of a fixed random functional of it, and the generator
state after the call (dropout draws the same noise).  In eval mode the rows
also match the dense references of ``test_backend_parity.py`` to 1e-8.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import build_encoder
from repro.gnn.gat import GATLayer
from repro.nn.segment import EdgeGroups
from repro.nn.tensor import Tensor
from tests.gnn.test_backend_parity import (
    DUPLICATE_EDGES,
    SINK_ONLY_EDGES,
    assert_parity,
    multigraph,
    random_graph,
    reference_gat,
    reference_gat_layer,
    reference_gcn,
)

GRAPHS = {"plain": random_graph, "multigraph": multigraph}


def target_sets(num_nodes):
    """Unsorted targets, one target, and every node (shuffled)."""
    rng = np.random.default_rng(5)
    return {
        "unsorted": rng.permutation(num_nodes)[: num_nodes // 3],
        "one": np.array([num_nodes - 1]),
        "every": rng.permutation(num_nodes),
    }


def make_encoder(kind, num_features, rng):
    return build_encoder(kind, in_features=num_features, hidden_dim=8, out_dim=6,
                         num_heads=2, dropout=0.4, rng=rng)


def train_pass(module, rng, state, forward):
    """Output, gradients and generator state of one train-mode ``forward()``.

    The generator starts from ``state``; the backward is that of a fixed
    random functional of the output.
    """
    module.train()
    module.zero_grad()
    rng.bit_generator.state = state
    out = forward()
    weights = Tensor(np.random.default_rng(11).normal(size=out.shape))
    (out * out * weights).sum().backward()
    grads = {name: None if param.grad is None else param.grad.copy()
             for name, param in module.named_parameters()}
    return out.data.copy(), grads, rng.bit_generator.state


def assert_bitwise_equal(module, rng, forward, reference):
    state = rng.bit_generator.state
    out, grads, after = train_pass(module, rng, state, forward)
    out_ref, grads_ref, after_ref = train_pass(module, rng, state, reference)
    assert np.array_equal(out, out_ref)
    assert grads.keys() == grads_ref.keys()
    for name, grad in grads.items():
        assert grad is not None and np.array_equal(grad, grads_ref[name]), name
    assert after == after_ref


@pytest.mark.parametrize("targets_kind", ["unsorted", "one", "every"])
@pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_targets_match_gathered_full_pass_bitwise(kind, graph_kind, targets_kind):
    graph = GRAPHS[graph_kind]()
    targets = target_sets(graph.num_nodes)[targets_kind]
    rng = np.random.default_rng(3)
    encoder = make_encoder(kind, graph.num_features, rng)
    assert_bitwise_equal(encoder, rng, lambda: encoder(graph, targets=targets),
                         lambda: encoder(graph).gather_rows(targets))


@pytest.mark.parametrize("targets_kind", ["unsorted", "one", "every"])
@pytest.mark.parametrize("graph_kind", sorted(GRAPHS))
@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_targets_match_dense_reference(kind, graph_kind, targets_kind):
    graph = GRAPHS[graph_kind]()
    targets = target_sets(graph.num_nodes)[targets_kind]
    encoder = make_encoder(kind, graph.num_features, np.random.default_rng(4))
    reference = reference_gcn if kind == "gcn" else reference_gat
    assert_parity(encoder, lambda: encoder(graph, targets=targets),
                  lambda: reference(encoder, graph).gather_rows(targets))


@pytest.mark.parametrize("targets", [[3, 0], [3], [2, 3, 1, 0]], ids=str)
@pytest.mark.parametrize("edges_kind", ["sink_only", "duplicate_edges"])
def test_gat_layer_targets_on_edge_cases(edges_kind, targets):
    """Node 3 is a sink-only target (no incoming edge) or has a duplicated in-edge."""
    edge_index = SINK_ONLY_EDGES if edges_kind == "sink_only" else DUPLICATE_EDGES
    targets = np.array(targets)
    features = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    rng = np.random.default_rng(1)
    layer = GATLayer(5, 3, num_heads=2, dropout=0.4, rng=rng)
    assert_bitwise_equal(layer, rng, lambda: layer(features, edge_index, 4, targets=targets),
                         lambda: layer(features, edge_index, 4).gather_rows(targets))
    out = assert_parity(
        layer, lambda: layer(features, edge_index, 4, targets=targets),
        lambda: reference_gat_layer(layer, features, *edge_index, 4).gather_rows(targets))
    assert np.isfinite(out).all()


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_repeated_target_rejected(kind):
    graph = random_graph()
    encoder = make_encoder(kind, graph.num_features, np.random.default_rng(0))
    with pytest.raises(ValueError, match="must not repeat"):
        encoder(graph, targets=np.array([4, 1, 4]))


def test_select_targets_keeps_edge_order():
    edges = EdgeGroups.from_edge_index(DUPLICATE_EDGES, 4)
    selection, rows = edges.select_targets(np.array([3, 0]))
    # Edges into 0 or 3, in their original order, with 3 -> 0 and 0 -> 1.
    assert rows.tolist() == [0, 3, 4, 5, 6]
    assert selection.src.tolist() == [0, 3, 2, 2, 1]
    assert selection.dst.tolist() == [1, 0, 1, 1, 0]
    assert (selection.num_sources, selection.num_targets) == (4, 2)
