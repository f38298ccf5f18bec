"""Segment kernels and the fused GAT attention ops, bit for bit.

Every kernel in :mod:`repro.nn.segment`, the ``gather_rows`` backward built
on it, and GAT's two fused ops :func:`repro.nn.tensor.edge_softmax` and
:func:`repro.nn.tensor.edge_aggregate` are checked for exact equality
(``np.array_equal``, not a tolerance) against ``np.add.at`` /
``np.maximum.at`` compositions kept in this file: forward values and the
gradient of every input.  The graphs are random multigraphs with duplicate
edges, self loops, unsorted edges and a target with no incoming edge, plus
layer-wise chunk slices of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.segment import EdgeGroups, Segments
from repro.nn.tensor import Tensor, edge_aggregate, edge_softmax

NUM_NODES = 23
HEADS = 3
WIDTH = 5


# ----------------------------------------------------------------------
# np.add.at reference compositions
# ----------------------------------------------------------------------
def ref_sum(ids, values, n):
    out = np.zeros((n, *values.shape[1:]))
    np.add.at(out, ids, values)
    return out


def ref_max(ids, values, n):
    out = np.full((n, *values.shape[1:]), -np.inf)
    np.maximum.at(out, ids, values)
    return out


def ref_scatter(t: Tensor, ids: np.ndarray, n: int) -> Tensor:
    def backward(grad):
        t._accumulate(grad[ids])

    return Tensor._make(ref_sum(ids, t.data, n), (t,), backward)


def ref_gather(t: Tensor, ids: np.ndarray) -> Tensor:
    def backward(grad):
        full = np.zeros(t.shape)
        np.add.at(full, ids, grad)
        t._accumulate(full)

    return Tensor._make(t.data[ids], (t,), backward)


def ref_segment_softmax(scores: Tensor, ids: np.ndarray, n: int) -> Tensor:
    seg_max = ref_max(ids, scores.data, n)
    seg_max[~np.isfinite(seg_max)] = 0.0
    exp = (scores - Tensor(seg_max[ids])).exp()
    denom = ref_scatter(exp, ids, n)
    return exp / (ref_gather(denom, ids) + 1e-16)


def ref_attention(score_src: Tensor, score_dst: Tensor, src, dst, n) -> Tensor:
    """The chain :func:`edge_softmax` fuses: gathers, add, leaky-ReLU, segment softmax."""
    scores = (ref_gather(score_src, src) + ref_gather(score_dst, dst)).leaky_relu(0.2)
    return ref_segment_softmax(scores, dst, n)


def ref_aggregate(values: Tensor, weights: Tensor, src, dst, n) -> Tensor:
    messages = ref_gather(values, src) * weights.reshape(-1, weights.shape[1], 1)
    return ref_scatter(messages, dst, n)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def multigraph(seed: int):
    """Unsorted edges with duplicates and self loops; the last node has no in-edge."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NUM_NODES, 120)
    dst = rng.integers(0, NUM_NODES - 1, 120)
    dup = rng.integers(0, 120, 30)
    loops = rng.integers(0, NUM_NODES - 1, 6)
    src = np.concatenate([src, src[dup], loops])
    dst = np.concatenate([dst, dst[dup], loops])
    perm = rng.permutation(src.shape[0])
    return src[perm], dst[perm]


@pytest.fixture(params=[0, 1, 2])
def graph(request):
    return multigraph(request.param)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def edge_sets(src, dst):
    """The whole graph, then a layer-wise chunk of targets sliced from it."""
    full = EdgeGroups(src, dst, NUM_NODES, NUM_NODES)
    yield full
    yield full.slice_targets(5, 17)
    yield full.slice_targets(NUM_NODES - 4, NUM_NODES)


def assert_same(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected), np.abs(actual - expected).max()


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class TestSegments:
    @pytest.mark.parametrize("tail", [(), (4,), (HEADS, WIDTH)])
    def test_sum_matches_add_at(self, graph, rng, tail):
        _, dst = graph
        values = rng.normal(size=(dst.shape[0], *tail))
        assert_same(Segments(dst, NUM_NODES).sum(values), ref_sum(dst, values, NUM_NODES))

    def test_max_matches_maximum_at(self, graph, rng):
        _, dst = graph
        values = rng.normal(size=(dst.shape[0], HEADS))
        out = Segments(dst, NUM_NODES).max(values)
        assert_same(out, ref_max(dst, values, NUM_NODES))
        assert np.isneginf(out[NUM_NODES - 1]).all()

    def test_grouping_is_stable(self, graph):
        _, dst = graph
        segments = Segments(dst, NUM_NODES)
        np.testing.assert_array_equal(segments.order, np.argsort(dst, kind="stable"))
        np.testing.assert_array_equal(np.diff(segments.indptr), np.bincount(dst, minlength=NUM_NODES))
        assert not segments.order.flags.writeable and not segments.indptr.flags.writeable

    def test_empty(self):
        segments = Segments(np.zeros(0, dtype=np.int64), 3)
        assert_same(segments.sum(np.zeros((0, 2))), np.zeros((3, 2)))
        assert np.isneginf(segments.max(np.zeros((0, 2)))).all()


class TestEdgeGroups:
    def test_weighted_sums_match_add_at(self, graph, rng):
        for edges in edge_sets(*graph):
            weights = rng.normal(size=len(edges))
            values = rng.normal(size=(NUM_NODES, WIDTH))
            messages = weights[:, None] * values[edges.src]
            assert_same(edges.sum_to_targets(weights, values),
                        ref_sum(edges.dst, messages, edges.num_targets))
            grad = rng.normal(size=(edges.num_targets, WIDTH))
            assert_same(edges.sum_to_sources(weights, grad),
                        ref_sum(edges.src, weights[:, None] * grad[edges.dst], NUM_NODES))

    def test_slice_holds_exactly_the_chunk_in_edges(self, graph):
        src, dst = graph
        full = EdgeGroups(src, dst, NUM_NODES, NUM_NODES)
        chunk = full.slice_targets(5, 17)
        keep = (dst >= 5) & (dst < 17)
        # Grouped by target, each target's edges in their original order.
        order = np.argsort(dst[keep], kind="stable")
        np.testing.assert_array_equal(chunk.src, src[keep][order])
        np.testing.assert_array_equal(chunk.dst, dst[keep][order] - 5)
        assert chunk.num_targets == 12 and chunk.num_sources == NUM_NODES


# ----------------------------------------------------------------------
# Tensor ops on the kernels: forward and every input gradient
# ----------------------------------------------------------------------
def run(fn, *arrays, seed=3):
    """``fn``'s output and the gradient of each input under a random projection."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    projection = np.random.default_rng(seed).normal(size=out.shape)
    (out * Tensor(projection)).sum().backward()
    return out.data, [t.grad for t in tensors]


def assert_runs_equal(new, ref):
    assert_same(new[0], ref[0])
    for got, want in zip(new[1], ref[1], strict=True):
        assert_same(got, want)


class TestTensorOps:
    def test_gather_rows_backward(self, graph, rng):
        src, _ = graph
        values = rng.normal(size=(NUM_NODES, HEADS, WIDTH))
        assert_runs_equal(run(lambda t: t.gather_rows(src), values),
                          run(lambda t: ref_gather(t, src), values))

    def test_gather_rows_2d_indices(self, rng):
        ids = rng.integers(0, 6, size=(9, 2))
        values = rng.normal(size=(6, 4))
        assert_runs_equal(run(lambda t: t.gather_rows(ids), values),
                          run(lambda t: ref_gather(t, ids), values))

    @pytest.mark.parametrize("tail", [(), (HEADS,)])
    def test_segment_softmax(self, graph, rng, tail):
        """:func:`edge_softmax`, one head without a head axis and several heads."""
        for edges in edge_sets(*graph):
            score_src = rng.normal(size=(NUM_NODES, *tail))
            score_dst = rng.normal(size=(edges.num_targets, *tail))
            ref = run(lambda s, d, e=edges: ref_attention(s, d, e.src, e.dst, e.num_targets),
                      score_src, score_dst)
            assert_runs_equal(run(lambda s, d, e=edges: edge_softmax(s, d, e, 0.2),
                                  score_src, score_dst), ref)

    def test_edge_aggregate(self, graph, rng):
        for edges in edge_sets(*graph):
            # The projection layout GATLayer.project produces: (H, N, O) viewed as (N, H, O).
            values = rng.normal(size=(HEADS, NUM_NODES, WIDTH)).transpose(1, 0, 2)
            weights = rng.random((len(edges), HEADS))
            ref = run(lambda v, w, e=edges: ref_aggregate(v, w, e.src, e.dst, e.num_targets),
                      values, weights)
            assert_runs_equal(run(lambda v, w, e=edges: edge_aggregate(v, w, e),
                                  values, weights), ref)

    def test_edge_aggregate_spans_several_edge_blocks(self, monkeypatch, graph, rng):
        from repro.nn import tensor

        monkeypatch.setattr(tensor, "_EDGE_BLOCK", 7)
        edges = EdgeGroups(*graph, NUM_NODES, NUM_NODES)
        values = rng.normal(size=(NUM_NODES, HEADS, WIDTH))
        weights = rng.random((len(edges), HEADS))
        assert_runs_equal(
            run(lambda v, w: edge_aggregate(v, w, edges), values, weights),
            run(lambda v, w: ref_aggregate(v, w, edges.src, edges.dst, NUM_NODES),
                values, weights))

    def test_gat_attention_matches_add_at_composition(self, graph, rng):
        """The whole per-edge half of a GAT layer, every input gradient included."""

        def attend(softmax, aggregate):
            def fn(x, weight, att_src, att_dst):
                projected = x.matmul(weight).transpose((1, 0, 2))
                score_src = (projected * att_src).sum(axis=-1)
                score_dst = (projected * att_dst).sum(axis=-1)
                alpha = softmax(score_src, score_dst)
                return aggregate(projected, alpha).mean(axis=1)
            return fn

        src, dst = graph
        edges = EdgeGroups(src, dst, NUM_NODES, NUM_NODES)
        new = attend(lambda s, d: edge_softmax(s, d, edges, 0.2),
                     lambda p, a: edge_aggregate(p, a, edges))
        ref = attend(lambda s, d: ref_attention(s, d, src, dst, NUM_NODES),
                     lambda p, a: ref_aggregate(p, a, src, dst, NUM_NODES))
        inputs = (rng.normal(size=(NUM_NODES, 4)), rng.normal(size=(HEADS, 4, WIDTH)),
                  rng.normal(size=(HEADS, WIDTH)), rng.normal(size=(HEADS, WIDTH)))
        assert_runs_equal(run(new, *inputs), run(ref, *inputs))
