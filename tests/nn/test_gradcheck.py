"""Finite-difference regression tests for every Tensor operation.

Each test checks the analytic backward rule of one op (or one composite from
``repro.nn.functional``) against central differences via
:mod:`tests.nn.gradcheck`.  Input data is kept away from non-differentiable
points (kinks of relu/clip, ties of max) so the numerical derivative is
well-defined.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.losses import supervised_contrastive_loss
from repro.nn import functional as F
from repro.nn.segment import EdgeGroups
from repro.nn.tensor import Tensor, cat, edge_aggregate, edge_softmax, sparse_matmul, stack

from .gradcheck import gradcheck

#: A multigraph: duplicate edge 1->0, self loop 2->2, node 3 with no in-edge.
ATTENTION_EDGES = EdgeGroups(np.array([1, 2, 1, 0, 2, 3]), np.array([0, 2, 0, 1, 1, 2]), 4, 4)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def away_from_zero(rng, shape, low=0.2, high=1.5):
    """Random values in +-[low, high]: safe for kinked activations."""
    magnitude = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return magnitude * sign


class TestArithmeticOps:
    def test_add(self, rng):
        gradcheck(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_add_broadcast(self, rng):
        gradcheck(lambda a, b: a + b, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])

    def test_radd_scalar(self, rng):
        gradcheck(lambda a: 2.5 + a, [rng.normal(size=(3, 4))])

    def test_neg(self, rng):
        gradcheck(lambda a: -a, [rng.normal(size=(3, 4))])

    def test_sub(self, rng):
        gradcheck(lambda a, b: a - b, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_rsub_scalar(self, rng):
        gradcheck(lambda a: 1.0 - a, [rng.normal(size=(3, 4))])

    def test_mul(self, rng):
        gradcheck(lambda a, b: a * b, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def test_mul_broadcast(self, rng):
        gradcheck(lambda a, b: a * b, [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 4))])

    def test_div(self, rng):
        gradcheck(
            lambda a, b: a / b,
            [rng.normal(size=(3, 4)), away_from_zero(rng, (3, 4), low=0.5)],
        )

    def test_rdiv_scalar(self, rng):
        gradcheck(lambda a: 2.0 / a, [away_from_zero(rng, (3, 4), low=0.5)])

    def test_pow(self, rng):
        gradcheck(lambda a: a ** 3, [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a ** 0.5, [rng.uniform(0.5, 2.0, size=(3, 4))])

    def test_matmul_2d(self, rng):
        gradcheck(lambda a, b: a.matmul(b), [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])

    def test_matmul_batched_2d_by_3d(self, rng):
        # The GAT head projection shape: (N, F) @ (H, F, O) -> (H, N, O).
        gradcheck(
            lambda a, b: a.matmul(b), [rng.normal(size=(5, 3)), rng.normal(size=(2, 3, 4))]
        )

    def test_matmul_batched_3d_by_2d(self, rng):
        gradcheck(
            lambda a, b: a.matmul(b), [rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4))]
        )

    def test_matmul_rejects_1d_operands(self, rng):
        from repro.nn.tensor import Tensor

        with pytest.raises(ValueError, match="ndim >= 2"):
            Tensor(rng.normal(size=3)).matmul(Tensor(rng.normal(size=(3, 2))))
        with pytest.raises(ValueError, match="ndim >= 2"):
            Tensor(rng.normal(size=(2, 3))).matmul(Tensor(rng.normal(size=3)))

    def test_matmul_batched_3d_by_3d(self, rng):
        gradcheck(
            lambda a, b: a.matmul(b),
            [rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 3, 4))],
        )


class TestElementwiseOps:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp(), [rng.normal(size=(3, 4))])

    def test_log(self, rng):
        gradcheck(lambda a: a.log(), [rng.uniform(0.5, 3.0, size=(3, 4))])

    def test_sqrt(self, rng):
        gradcheck(lambda a: a.sqrt(), [rng.uniform(0.5, 3.0, size=(3, 4))])

    def test_relu(self, rng):
        gradcheck(lambda a: a.relu(), [away_from_zero(rng, (3, 4))])

    def test_leaky_relu(self, rng):
        gradcheck(lambda a: a.leaky_relu(0.2), [away_from_zero(rng, (3, 4))])

    def test_elu(self, rng):
        gradcheck(lambda a: a.elu(1.0), [away_from_zero(rng, (3, 4))])

    def test_sigmoid(self, rng):
        gradcheck(lambda a: a.sigmoid(), [rng.normal(size=(3, 4))])

    def test_tanh(self, rng):
        gradcheck(lambda a: a.tanh(), [rng.normal(size=(3, 4))])

    def test_clip(self, rng):
        # Values at least 0.1 away from the clip boundaries -1 / +1.
        data = rng.uniform(-2.0, 2.0, size=(4, 5))
        data[np.abs(np.abs(data) - 1.0) < 0.1] = 0.5
        gradcheck(lambda a: a.clip(-1.0, 1.0), [data])


class TestReductionOps:
    def test_sum_all(self, rng):
        gradcheck(lambda a: a.sum(), [rng.normal(size=(3, 4))])

    def test_sum_axis(self, rng):
        gradcheck(lambda a: a.sum(axis=0), [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a.sum(axis=-1), [rng.normal(size=(2, 3, 4))])

    def test_sum_keepdims(self, rng):
        gradcheck(lambda a: a.sum(axis=1, keepdims=True), [rng.normal(size=(3, 4))])

    def test_mean(self, rng):
        gradcheck(lambda a: a.mean(), [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a.mean(axis=1), [rng.normal(size=(2, 3, 4))])

    def test_max_all(self, rng):
        gradcheck(lambda a: a.max(), [rng.normal(size=(3, 4))])

    def test_max_axis(self, rng):
        gradcheck(lambda a: a.max(axis=1), [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a.max(axis=0, keepdims=True), [rng.normal(size=(3, 4))])


class TestShapeOps:
    def test_reshape(self, rng):
        gradcheck(lambda a: a.reshape(4, 3), [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a.reshape(-1), [rng.normal(size=(3, 4))])

    def test_transpose(self, rng):
        gradcheck(lambda a: a.transpose(), [rng.normal(size=(3, 4))])
        gradcheck(lambda a: a.transpose((1, 0, 2)), [rng.normal(size=(2, 3, 4))])

    def test_gather_rows(self, rng):
        indices = np.array([0, 2, 2, 1])  # duplicates exercise scatter-add backward
        gradcheck(lambda a: a.gather_rows(indices), [rng.normal(size=(3, 4))])

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: a[1:3], [rng.normal(size=(4, 5))])

    def test_getitem_int(self, rng):
        gradcheck(lambda a: a[2], [rng.normal(size=(4, 5))])

    def test_cat(self, rng):
        gradcheck(
            lambda a, b: cat([a, b], axis=0),
            [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))],
        )
        gradcheck(
            lambda a, b: cat([a, b], axis=1),
            [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
        )

    def test_stack(self, rng):
        gradcheck(
            lambda a, b: stack([a, b], axis=0),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        )


class TestSparseMatmul:
    def test_sparse_matmul_csr(self, rng):
        matrix = sp.random(6, 6, density=0.4, random_state=7, format="csr")
        gradcheck(lambda a: sparse_matmul(matrix, a), [rng.normal(size=(6, 4))])

    def test_sparse_matmul_rectangular(self, rng):
        matrix = sp.random(3, 6, density=0.5, random_state=8, format="csr")
        gradcheck(lambda a: sparse_matmul(matrix, a), [rng.normal(size=(6, 2))])

    def test_sparse_matmul_accepts_other_formats(self, rng):
        matrix = sp.random(5, 5, density=0.4, random_state=9, format="coo")
        gradcheck(lambda a: sparse_matmul(matrix, a), [rng.normal(size=(5, 3))])

    def test_sparse_matmul_matches_dense(self, rng):
        matrix = sp.random(6, 6, density=0.4, random_state=10, format="csr")
        data = rng.normal(size=(6, 4))
        out = sparse_matmul(matrix, Tensor(data))
        np.testing.assert_allclose(out.data, matrix.toarray() @ data, atol=1e-12)

    def test_sparse_matmul_rejects_dense_matrix(self, rng):
        with pytest.raises(TypeError):
            sparse_matmul(np.eye(3), Tensor(np.ones((3, 2))))

    def test_sparse_matmul_respects_no_grad(self, rng):
        from repro.nn.tensor import no_grad

        matrix = sp.identity(3, format="csr")
        with no_grad():
            out = sparse_matmul(matrix, Tensor(np.ones((3, 2)), requires_grad=True))
        assert out.requires_grad is False


class TestFunctionalComposites:
    def test_softmax(self, rng):
        gradcheck(lambda a: F.softmax(a, axis=-1), [rng.normal(size=(3, 5))])

    def test_log_softmax(self, rng):
        gradcheck(lambda a: F.log_softmax(a, axis=-1), [rng.normal(size=(3, 5))])

    def test_cross_entropy(self, rng):
        targets = np.array([0, 2, 1])
        gradcheck(lambda a: F.cross_entropy(a, targets), [rng.normal(size=(3, 4))])

    def test_binary_cross_entropy_with_logits(self, rng):
        targets = np.array([[0.0, 1.0], [1.0, 0.0]])
        gradcheck(
            lambda a: F.binary_cross_entropy_with_logits(a, targets),
            [away_from_zero(rng, (2, 2))],  # |x| has a kink at 0
        )

    def test_bce_gradient_is_sigmoid_minus_target(self, rng):
        logits = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        targets = (rng.random((3, 2)) < 0.5).astype(np.float64)
        F.binary_cross_entropy_with_logits(logits, targets).backward()
        expected = (1.0 / (1.0 + np.exp(-logits.data)) - targets) / logits.size
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    def test_l2_normalize(self, rng):
        gradcheck(lambda a: F.l2_normalize(a, axis=-1), [rng.normal(size=(3, 4))])

    def test_segment_softmax_1d(self, rng):
        """:func:`edge_softmax` with one head (scores without a head axis)."""
        gradcheck(
            lambda src, dst: edge_softmax(src, dst, ATTENTION_EDGES, 0.2),
            [rng.normal(size=(4,)), rng.normal(size=(4,))],
        )

    def test_segment_softmax_2d(self, rng):
        """:func:`edge_softmax` with two heads."""
        gradcheck(
            lambda src, dst: edge_softmax(src, dst, ATTENTION_EDGES, 0.2),
            [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))],
        )

    def test_supervised_contrastive(self, rng):
        # Four nodes, two views each: nodes 0 and 3 share id 0, node 2 (-1)
        # pairs only with its other view.
        group_ids = np.array([0, 1, -1, 0, 0, 1, -1, 0])
        gradcheck(
            lambda z: supervised_contrastive_loss(z, group_ids, 0.7),
            [rng.normal(size=(8, 3))],
        )

    def test_edge_aggregate(self, rng):
        gradcheck(
            lambda values, weights: edge_aggregate(values, weights, ATTENTION_EDGES),
            [rng.normal(size=(4, 2, 3)), rng.uniform(0.1, 1.0, size=(6, 2))],
        )

    def test_pairwise_cosine_similarity(self, rng):
        gradcheck(lambda a: F.pairwise_cosine_similarity(a), [rng.normal(size=(4, 3))])
