"""Neighborhood sampling: CSR lookup, k-hop extraction, fanout caps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import build_encoder
from repro.gnn.gat import GATEncoder
from repro.gnn.gcn import GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.sampling import (
    NeighborSampler,
    build_edge_csr,
    khop_subgraph,
)
from repro.graphs.utils import symmetrize_edges
from tests.gnn.test_backend_parity import reference_embed


def random_graph(num_nodes=200, avg_degree=6, num_features=12, seed=0) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = num_nodes * avg_degree // 2
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    edge_index = symmetrize_edges(np.vstack([src, dst]))
    return Graph(
        features=rng.normal(size=(num_nodes, num_features)),
        edge_index=edge_index,
        labels=rng.integers(4, size=num_nodes),
        name="random",
    )


def brute_force_khop(graph: Graph, seeds: np.ndarray, num_hops: int) -> set:
    """Reference BFS over the symmetrized edge list."""
    src, dst = symmetrize_edges(graph.edge_index)
    field = set(int(s) for s in seeds)
    frontier = set(field)
    for _ in range(num_hops):
        next_frontier = set()
        for s, d in zip(src, dst, strict=True):
            if int(s) in frontier and int(d) not in field:
                next_frontier.add(int(d))
        field |= next_frontier
        frontier = next_frontier
    return field


class TestBuildEdgeCsr:
    def test_groups_targets_by_source_preserving_order(self):
        edge_index = np.array([[2, 0, 2, 0, 1], [1, 2, 0, 1, 0]])
        indptr, indices = build_edge_csr(edge_index, 3)
        np.testing.assert_array_equal(indptr, [0, 2, 3, 5])
        np.testing.assert_array_equal(indices[0:2], [2, 1])  # node 0, edge order
        np.testing.assert_array_equal(indices[2:3], [0])
        np.testing.assert_array_equal(indices[3:5], [1, 0])

    def test_keeps_duplicate_edges(self):
        edge_index = np.array([[0, 0, 0], [1, 1, 2]])
        indptr, indices = build_edge_csr(edge_index, 3)
        np.testing.assert_array_equal(indices[indptr[0]:indptr[1]], [1, 1, 2])

    def test_empty_graph(self):
        indptr, indices = build_edge_csr(np.zeros((2, 0), dtype=int), 4)
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0, 0])
        assert indices.size == 0


class TestKhopSubgraph:
    def test_matches_brute_force_bfs(self):
        graph = random_graph()
        seeds = np.array([3, 17, 99])
        for num_hops in (1, 2, 3):
            batch = khop_subgraph(graph, seeds, num_hops)
            assert set(batch.node_ids.tolist()) == brute_force_khop(graph, seeds, num_hops)

    def test_seeds_come_first_in_given_order(self):
        graph = random_graph()
        seeds = np.array([42, 7, 120])
        batch = khop_subgraph(graph, seeds, 2)
        np.testing.assert_array_equal(batch.node_ids[batch.seed_local], seeds)
        np.testing.assert_array_equal(batch.seed_local, [0, 1, 2])

    def test_node_id_mapping_round_trips(self):
        graph = random_graph()
        batch = khop_subgraph(graph, np.array([0, 5, 9]), 2)
        local = np.arange(batch.num_nodes)
        np.testing.assert_array_equal(batch.to_local(batch.to_global(local)), local)
        np.testing.assert_array_equal(batch.to_global(batch.to_local(batch.node_ids)),
                                      batch.node_ids)

    def test_to_local_rejects_absent_nodes(self):
        graph = random_graph()
        batch = khop_subgraph(graph, np.array([0]), 1)
        outside = np.setdiff1d(np.arange(graph.num_nodes), batch.node_ids)
        with pytest.raises(KeyError):
            batch.to_local(outside[:1])

    def test_features_and_labels_follow_mapping(self):
        graph = random_graph()
        batch = khop_subgraph(graph, np.array([1, 2]), 2)
        np.testing.assert_array_equal(batch.graph.features,
                                      graph.features[batch.node_ids])
        np.testing.assert_array_equal(batch.graph.labels,
                                      graph.labels[batch.node_ids])

    def test_induced_edges_match_graph_subgraph(self):
        graph = random_graph()
        batch = khop_subgraph(graph, np.array([0, 60]), 2)
        expected = graph.subgraph(batch.node_ids)
        got = set(map(tuple, batch.graph.edge_index.T.tolist()))
        want = set(map(tuple, expected.edge_index.T.tolist()))
        assert got == want
        assert batch.graph.num_edges == expected.num_edges

    def test_propagation_is_sliced_from_full_graph(self):
        graph = random_graph()
        batch = khop_subgraph(graph, np.array([4, 8]), 2)
        ids = batch.node_ids
        full = graph.propagation().toarray()
        np.testing.assert_allclose(batch.graph.propagation().toarray(),
                                   full[np.ix_(ids, ids)], atol=0, rtol=0)


class TestEncoderExactness:
    """A 2-layer encoder on the 2-hop subgraph equals the full graph at seeds."""

    def test_gcn_outputs_match(self):
        graph = random_graph()
        seeds = np.random.default_rng(1).choice(graph.num_nodes, size=24, replace=False)
        encoder = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4,
                             dropout=0.0, rng=np.random.default_rng(2))
        full = encoder.embed(graph)
        batch = khop_subgraph(graph, seeds, 2)
        sub = encoder.embed(batch.graph)
        np.testing.assert_allclose(sub[batch.seed_local], full[seeds], atol=1e-8)

    def test_gat_outputs_match(self):
        graph = random_graph()
        seeds = np.random.default_rng(1).choice(graph.num_nodes, size=24, replace=False)
        encoder = GATEncoder(graph.num_features, hidden_dim=8, out_dim=4,
                             num_heads=2, dropout=0.0, rng=np.random.default_rng(2))
        full = encoder.embed(graph)
        batch = khop_subgraph(graph, seeds, 2)
        sub = encoder.embed(batch.graph)
        np.testing.assert_allclose(sub[batch.seed_local], full[seeds], atol=1e-8)

    @pytest.mark.parametrize("kind", ["gcn", "gat"])
    def test_outputs_match_dense_reference(self, kind):
        graph = random_graph()
        seeds = np.random.default_rng(1).choice(graph.num_nodes, size=24, replace=False)
        encoder = build_encoder(kind, in_features=graph.num_features, hidden_dim=8,
                                out_dim=4, num_heads=2, dropout=0.0,
                                rng=np.random.default_rng(2))
        batch = khop_subgraph(graph, seeds, 2)
        sub = encoder.embed(batch.graph)
        np.testing.assert_allclose(sub[batch.seed_local],
                                   reference_embed(encoder, graph)[seeds], atol=1e-8)


class TestNeighborSampler:
    def test_fanout_determinism_under_fixed_seed(self):
        graph = random_graph()
        seeds = np.arange(10)
        batches = [
            NeighborSampler(graph, num_hops=2, fanouts=[3, 3],
                            rng=np.random.default_rng(11)).sample(seeds)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(batches[0].node_ids, batches[1].node_ids)
        np.testing.assert_array_equal(batches[0].graph.edge_index,
                                      batches[1].graph.edge_index)

    def test_fanout_caps_expansion(self):
        graph = random_graph(avg_degree=10)
        seeds = np.arange(8)
        batch = NeighborSampler(graph, num_hops=1, fanouts=[2],
                                rng=np.random.default_rng(0)).sample(seeds)
        # At most 2 fresh neighbors per seed.
        assert batch.num_nodes <= seeds.shape[0] * (1 + 2)

    def test_sampled_nodes_are_true_neighbors(self):
        graph = random_graph()
        seeds = np.array([5])
        batch = NeighborSampler(graph, num_hops=1, fanouts=[3],
                                rng=np.random.default_rng(0)).sample(seeds)
        src, dst = symmetrize_edges(graph.edge_index)
        true_neighbors = set(dst[src == 5].tolist()) | {5}
        assert set(batch.node_ids.tolist()) <= true_neighbors

    def test_uncapped_sampler_equals_khop(self):
        graph = random_graph()
        seeds = np.array([0, 33, 66])
        a = NeighborSampler(graph, num_hops=2).sample(seeds)
        b = khop_subgraph(graph, seeds, 2)
        np.testing.assert_array_equal(a.node_ids, b.node_ids)

    def test_duplicate_seeds_rejected(self):
        # A duplicated seed would enter the subgraph twice and double-count
        # its propagation column, silently breaking the exactness guarantee.
        graph = random_graph()
        with pytest.raises(ValueError, match="duplicate"):
            NeighborSampler(graph, num_hops=2).sample(np.array([5, 5]))
        with pytest.raises(ValueError, match="duplicate"):
            khop_subgraph(graph, np.array([1, 2, 1]), 1)

    def test_fanout_validation(self):
        graph = random_graph()
        with pytest.raises(ValueError, match="one cap per hop"):
            NeighborSampler(graph, num_hops=2, fanouts=[3])
        with pytest.raises(ValueError, match=">= 1"):
            NeighborSampler(graph, num_hops=1, fanouts=[0])
        with pytest.raises(ValueError, match="num_hops"):
            NeighborSampler(graph, num_hops=0)

    def test_isolated_seed_yields_singleton_subgraph(self):
        features = np.eye(4)
        edge_index = np.array([[0, 1], [1, 0]])
        graph = Graph(features=features, edge_index=edge_index)
        batch = khop_subgraph(graph, np.array([3]), 2)
        assert batch.num_nodes == 1
        assert batch.graph.num_edges == 0
        # The isolated node keeps its full-graph self-loop weight of 1.
        np.testing.assert_allclose(batch.graph.propagation().toarray(), [[1.0]])
