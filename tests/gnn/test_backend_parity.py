"""GNN encoder kernels against dense O(N^2) references.

The encoders propagate through the sparse CSR matrix (GCN) and vectorized
edge-list attention (GAT).  The ``reference_*`` functions below compute the
same functions densely from ``Tensor`` ops: ``P @ (X W)`` with the
densified propagation matrix, and per-head masked N x N attention.  Forward
outputs and every parameter gradient agree to 1e-8 on random graphs.
Dropout is disabled so both passes are deterministic.  ``reference_embed``
is the oracle that the layer-wise, partial-refresh and k-hop subgraph
suites also check their outputs against.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import build_encoder
from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.nn import functional as F
from repro.nn.tensor import Tensor, cat

ATOL = 1e-8


def random_graph(num_nodes=40, num_features=7, avg_degree=4.0, seed=0):
    rng = np.random.default_rng(seed)
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    edge_index = symmetrize_edges(np.vstack([src, dst]))
    return Graph(features=rng.normal(size=(num_nodes, num_features)), edge_index=edge_index)


def multigraph(seed=0):
    """``random_graph`` plus duplicated directed edges and explicit self loops, shuffled."""
    graph = random_graph(seed=seed)
    rng = np.random.default_rng(seed + 100)
    duplicates = graph.edge_index[:, rng.integers(graph.num_edges, size=30)]
    loops = np.tile(rng.integers(graph.num_nodes, size=8), (2, 1))
    edges = np.hstack([graph.edge_index, duplicates, loops])
    return Graph(features=graph.features, edge_index=edges[:, rng.permutation(edges.shape[1])])


#: Four nodes and three edges; node 3 has no incoming edge.
SINK_ONLY_EDGES = np.array([[3, 1, 2], [0, 0, 1]])
#: Edge 2->0 listed twice; self loops keep every row reachable.
DUPLICATE_EDGES = np.array([[0, 1, 2, 3, 2, 2, 1], [0, 1, 2, 3, 0, 0, 3]])


def reference_gcn(encoder, graph):
    """Two GCN layers with the densified propagation matrix (eval mode)."""
    propagation = Tensor(graph.propagation().toarray())
    hidden = propagation.matmul(encoder.layer1.linear(Tensor(graph.features))).relu()
    return propagation.matmul(encoder.layer2.linear(hidden))


def reference_gat_layer(layer, x, src, dst, num_nodes):
    """Per-head masked N x N attention of ``layer`` (eval mode).

    The additive mask is log(multiplicity): 0 on single edges, -inf on
    non-edges, so the row softmax over sources matches the softmax over
    incoming edges, and a duplicated directed edge carries its attention
    mass once per copy.  Rows of nodes with no incoming edges would softmax
    to 0/0 = NaN; they are left unmasked and zeroed through ``row_gate``
    instead, matching the all-zero rows the edge-list aggregation produces.
    """
    multiplicity = np.zeros((num_nodes, num_nodes))
    np.add.at(multiplicity, (dst, src), 1.0)
    with np.errstate(divide="ignore"):
        mask = np.log(multiplicity)
    has_incoming = multiplicity.sum(axis=1) > 0
    mask[~has_incoming] = 0.0
    row_gate = Tensor(has_incoming.astype(np.float64).reshape(-1, 1))

    head_outputs = []
    for head in range(layer.num_heads):
        projected = x.matmul(layer.weight[head])  # (N, O)
        score_src = projected.matmul(layer.att_src[head].reshape(-1, 1)).reshape(1, -1)
        score_dst = projected.matmul(layer.att_dst[head].reshape(-1, 1)).reshape(-1, 1)
        # logits[j, i] = LeakyReLU(a_src . h_i + a_dst . h_j)
        logits = (score_src + score_dst).leaky_relu(layer.negative_slope)
        alpha = F.softmax(logits + Tensor(mask), axis=-1) * row_gate
        head_outputs.append(alpha.matmul(projected))

    if layer.concat_heads:
        return cat(head_outputs, axis=1)
    total = head_outputs[0]
    for other in head_outputs[1:]:
        total = total + other
    return total * (1.0 / layer.num_heads)


def reference_gat(encoder, graph):
    """The two GAT layers on the graph's attention edges (eval mode)."""
    edges = graph.attention_edges()
    args = (edges.src, edges.dst, graph.num_nodes)
    hidden = reference_gat_layer(encoder.layer1, Tensor(graph.features), *args).elu()
    return reference_gat_layer(encoder.layer2, hidden, *args)


def reference_embed(encoder, graph):
    """The dense reference output of a GCN or GAT ``encoder``, as an array."""
    reference = reference_gcn if isinstance(encoder, GCNEncoder) else reference_gat
    return reference(encoder, graph).data


def forward_backward(module, forward):
    """Deterministic ``forward()`` + a quadratic loss backward; returns output, grads."""
    module.eval()  # dropout off; the graph is still recorded
    module.zero_grad()
    out = forward()
    (out * out).sum().backward()
    grads = {name: param.grad.copy() for name, param in module.named_parameters()}
    return out.data, grads


def assert_parity(module, forward, reference):
    out, grads = forward_backward(module, forward)
    out_ref, grads_ref = forward_backward(module, reference)
    np.testing.assert_allclose(out, out_ref, atol=ATOL)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_ref[name], atol=ATOL, err_msg=name)
    return out_ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gcn_forward_and_gradient_parity(seed):
    graph = random_graph(seed=seed)
    encoder = build_encoder("gcn", in_features=graph.num_features, hidden_dim=16,
                            out_dim=8, dropout=0.0, rng=np.random.default_rng(seed))
    assert_parity(encoder, lambda: encoder(graph), lambda: reference_gcn(encoder, graph))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gat_forward_and_gradient_parity(seed):
    graph = random_graph(num_nodes=25, seed=seed)
    encoder = build_encoder("gat", in_features=graph.num_features, hidden_dim=8,
                            out_dim=6, num_heads=2, dropout=0.0,
                            rng=np.random.default_rng(seed))
    assert_parity(encoder, lambda: encoder(graph), lambda: reference_gat(encoder, graph))


def test_gat_layer_parity_with_sink_only_node():
    """A node with no incoming edges gets a zero row from both paths.

    GATLayer is public and does not add self loops itself; the masked
    reference must not emit NaN for the unreached node.
    """
    features = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    layer = GATLayer(5, 3, num_heads=2, dropout=0.0, rng=np.random.default_rng(1))

    out = assert_parity(layer, lambda: layer(features, SINK_ONLY_EDGES, 4),
                        lambda: reference_gat_layer(layer, features, *SINK_ONLY_EDGES, 4))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out[3], 0.0, atol=ATOL)
    for param in layer.parameters():
        assert np.isfinite(param.grad).all()


def test_gat_layer_parity_with_duplicate_directed_edges():
    """A duplicated edge carries double attention mass on both paths."""
    features = Tensor(np.random.default_rng(3).normal(size=(4, 5)))
    layer = GATLayer(5, 3, num_heads=2, dropout=0.0, rng=np.random.default_rng(4))

    assert_parity(layer, lambda: layer(features, DUPLICATE_EDGES, 4),
                  lambda: reference_gat_layer(layer, features, *DUPLICATE_EDGES, 4))


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_multigraph_forward_and_gradient_parity(kind):
    graph = multigraph()
    encoder = build_encoder(kind, in_features=graph.num_features, hidden_dim=8, out_dim=6,
                            num_heads=2, dropout=0.0, rng=np.random.default_rng(5))
    reference = reference_gcn if kind == "gcn" else reference_gat
    assert_parity(encoder, lambda: encoder(graph), lambda: reference(encoder, graph))


def test_gcn_propagation_cache_keyed_by_graph_identity():
    """Fresh graphs at recycled addresses must never see a stale cache."""
    encoder = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0,
                         rng=np.random.default_rng(0))
    for seed in range(6):
        graph = random_graph(seed=seed)  # prior graph freed each iteration
        fresh = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0,
                           rng=np.random.default_rng(0))
        np.testing.assert_allclose(encoder.embed(graph), fresh.embed(graph), atol=ATOL)


def test_gcn_encoder_does_not_pin_graph():
    """The propagation matrix is cached on the graph, never on the encoder."""
    encoder = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0,
                         rng=np.random.default_rng(0))
    graph = random_graph()
    ref = weakref.ref(graph)
    encoder.embed(graph)
    del graph
    gc.collect()
    assert ref() is None


def test_gcn_keeps_propagation_sparse():
    graph = random_graph()
    GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4).embed(graph)
    assert sp.issparse(graph._propagation_cache)


def test_propagation_cache_shared_across_encoders():
    graph = random_graph()
    first = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    second = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    first.embed(graph)
    cached = graph._propagation_cache
    assert cached is not None
    second.embed(graph)
    assert graph._propagation_cache is cached
