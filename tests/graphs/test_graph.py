"""Tests for the Graph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.graph import Graph


def make_triangle_graph():
    features = np.eye(3)
    edge_index = np.array([[0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2]])
    labels = np.array([0, 0, 1])
    return Graph(features=features, edge_index=edge_index, labels=labels, name="triangle")


class TestConstruction:
    def test_basic_properties(self):
        graph = make_triangle_graph()
        assert graph.num_nodes == 3
        assert graph.num_edges == 6
        assert graph.num_features == 3
        assert graph.num_classes == 2
        assert "triangle" in repr(graph)

    def test_invalid_edge_index_shape(self):
        with pytest.raises(ValueError):
            Graph(features=np.eye(3), edge_index=np.array([[0, 1, 2]]))

    def test_edge_referencing_missing_node(self):
        with pytest.raises(ValueError):
            Graph(features=np.eye(2), edge_index=np.array([[0, 5], [1, 0]]))

    def test_negative_node_id_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Graph(features=np.eye(2), edge_index=np.array([[-1], [0]]))
        with pytest.raises(ValueError, match="negative"):
            Graph(features=np.eye(2), edge_index=np.array([[0], [-3]]))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph(features=np.eye(3), edge_index=np.zeros((2, 0), dtype=int),
                  labels=np.array([0, 1]))

    def test_unlabeled_graph(self):
        graph = Graph(features=np.eye(3), edge_index=np.zeros((2, 0), dtype=int))
        assert graph.num_classes == 0
        assert graph.labels is None


class TestDerivedStructures:
    def test_adjacency_matches_edges(self):
        graph = make_triangle_graph()
        adjacency = graph.adjacency().toarray()
        assert adjacency.sum() == graph.num_edges
        assert adjacency[0, 1] == 1 and adjacency[1, 0] == 1

    def test_adjacency_cached(self):
        graph = make_triangle_graph()
        assert graph.adjacency() is graph.adjacency()

    def test_degrees(self):
        graph = make_triangle_graph()
        np.testing.assert_array_equal(graph.degrees(), [2, 2, 2])

    def test_neighbors(self):
        graph = make_triangle_graph()
        assert set(graph.neighbors(1)) == {0, 2}

    def test_neighbors_preserves_multiplicity_and_order(self):
        # Duplicate directed edge 0->2 plus 0->1, listed out of source order.
        graph = Graph(
            features=np.eye(3),
            edge_index=np.array([[1, 0, 0, 0], [0, 2, 1, 2]]),
        )
        np.testing.assert_array_equal(graph.neighbors(0), [2, 1, 2])
        np.testing.assert_array_equal(graph.neighbors(1), [0])
        assert graph.neighbors(2).size == 0

    def test_neighbors_matches_edge_scan(self):
        rng = np.random.default_rng(0)
        edge_index = rng.integers(12, size=(2, 60))
        graph = Graph(features=np.eye(12), edge_index=edge_index)
        for node in range(12):
            expected = edge_index[1][edge_index[0] == node]
            np.testing.assert_array_equal(graph.neighbors(node), expected)

    def test_copy_is_independent(self):
        graph = make_triangle_graph()
        clone = graph.copy()
        clone.features[0, 0] = 99.0
        assert graph.features[0, 0] == 1.0
        clone.labels[0] = 5
        assert graph.labels[0] == 0


class TestCacheInvalidation:
    def test_stale_caches_cleared_by_invalidate(self):
        graph = make_triangle_graph()
        stale_adjacency = graph.adjacency()
        stale_propagation = graph.propagation()
        graph.neighbors(0)  # builds the CSR cache

        graph.edge_index = np.array([[0, 1], [1, 0]])  # mutation: 0-1 edge only
        # Without invalidation the caches still describe the triangle.
        assert graph.adjacency() is stale_adjacency

        graph.invalidate_caches()
        assert graph.adjacency().nnz == 2
        assert graph.propagation() is not stale_propagation
        assert graph.neighbors(2).size == 0
        np.testing.assert_array_equal(graph.neighbors(0), [1])

    def test_dataclasses_replace_does_not_inherit_stale_caches(self):
        import dataclasses

        graph = make_triangle_graph()
        graph.adjacency()
        replaced = dataclasses.replace(graph, edge_index=np.array([[0], [1]]))
        assert replaced.adjacency().nnz == 1


class TestAttentionEdges:
    def test_built_on_first_use_then_cached_and_frozen(self):
        graph = make_triangle_graph()
        assert graph._attention_cache is None  # never at construction
        edges = graph.attention_edges()
        assert graph.attention_edges() is edges
        # edge_index plus one self loop per node, in that order.
        np.testing.assert_array_equal(edges.src, [0, 1, 1, 2, 2, 0, 0, 1, 2])
        np.testing.assert_array_equal(edges.dst, [1, 0, 2, 1, 0, 2, 0, 1, 2])
        assert not edges.src.flags.writeable and not edges.dst.flags.writeable

    def test_apply_delta_drops_the_cached_edges(self):
        from repro.graphs.delta import GraphDelta

        graph = make_triangle_graph()
        stale = graph.attention_edges()
        graph.apply_delta(GraphDelta(add_features=np.eye(3)[:1],
                                     add_edges=np.array([[3, 0], [0, 3]])))
        edges = graph.attention_edges()
        assert edges is not stale
        assert len(edges) == 8 + 4 and edges.num_targets == 4

    def test_invalidate_caches_drops_the_cached_edges(self):
        graph = make_triangle_graph()
        stale = graph.attention_edges()
        graph.edge_index = np.array([[0], [1]])
        graph.invalidate_caches()
        assert graph.attention_edges() is not stale
        np.testing.assert_array_equal(graph.attention_edges().src, [0, 0, 1, 2])

    def test_gat_after_delta_matches_a_fresh_graph(self):
        """A stale grouping after a delta would aggregate the wrong edges."""
        from repro.gnn import GATEncoder
        from repro.graphs.delta import GraphDelta

        rng = np.random.default_rng(0)
        graph = Graph(features=rng.normal(size=(6, 3)),
                      edge_index=np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]]))
        encoder = GATEncoder(3, hidden_dim=4, out_dim=2, num_heads=2, dropout=0.0, rng=rng)
        encoder.embed(graph)  # builds the attention cache
        graph.apply_delta(GraphDelta(add_features=rng.normal(size=(1, 3)),
                                     add_edges=np.array([[6, 0, 5], [0, 6, 0]])))
        np.testing.assert_array_equal(encoder.embed(graph), encoder.embed(graph.copy()))


class TestSubgraph:
    def test_subgraph_relabels_nodes(self):
        graph = make_triangle_graph()
        sub = graph.subgraph(np.array([0, 2]))
        assert sub.num_nodes == 2
        # Only the 0-2 edge survives (both directions).
        assert sub.num_edges == 2
        assert sub.edge_index.max() <= 1
        np.testing.assert_array_equal(sub.labels, [0, 1])

    def test_subgraph_of_all_nodes_is_whole_graph(self):
        graph = make_triangle_graph()
        sub = graph.subgraph(np.arange(3))
        assert sub.num_nodes == graph.num_nodes
        assert sub.num_edges == graph.num_edges

    def test_subgraph_empty_edges(self):
        graph = make_triangle_graph()
        sub = graph.subgraph(np.array([0]))
        assert sub.num_nodes == 1
        assert sub.num_edges == 0
