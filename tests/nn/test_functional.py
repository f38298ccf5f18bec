"""Tests for the composite differentiable functions in repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.segment import EdgeGroups
from repro.nn.tensor import Tensor, edge_softmax


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        probs = F.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        assert (probs > 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 4))
        p1 = F.softmax(Tensor(logits)).data
        p2 = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_numerical_stability_large_values(self):
        logits = Tensor(np.array([[1000.0, 1000.5, 999.0]]))
        probs = F.softmax(logits).data
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(), 1.0)


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(3)
        logits_np = rng.normal(size=(6, 4))
        targets = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits_np), targets).item()
        shifted = logits_np - logits_np.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 3), -20.0)
        logits[np.arange(3), np.arange(3)] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.arange(3)).item()
        assert loss < 1e-8

    def test_gradient_direction(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        targets = np.array([0, 2])
        F.cross_entropy(logits, targets).backward()
        # Gradient is (softmax - onehot)/n: negative at the target entries.
        assert logits.grad[0, 0] < 0
        assert logits.grad[1, 2] < 0
        assert logits.grad[0, 1] > 0

    def test_reductions(self):
        logits = Tensor(np.random.default_rng(4).normal(size=(5, 3)))
        targets = np.array([0, 1, 2, 0, 1])
        per_sample = F.cross_entropy(logits, targets, reduction="none")
        assert per_sample.shape == (5,)
        total = F.cross_entropy(logits, targets, reduction="sum").item()
        assert total == pytest.approx(per_sample.data.sum())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.array([0, 1]))


class TestBinaryCrossEntropy:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=8)
        targets = rng.integers(0, 2, size=8).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert loss == pytest.approx(expected, abs=1e-8)


class TestL2Normalize:
    def test_unit_norm_rows(self):
        x = Tensor(np.random.default_rng(6).normal(size=(7, 5)))
        normalized = F.l2_normalize(x).data
        np.testing.assert_allclose(np.linalg.norm(normalized, axis=1), np.ones(7), atol=1e-9)

    def test_zero_row_is_safe(self):
        x = Tensor(np.zeros((2, 3)))
        normalized = F.l2_normalize(x).data
        assert np.isfinite(normalized).all()

    def test_gradient_flows(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 4)), requires_grad=True)
        F.l2_normalize(x).sum().backward()
        assert x.grad is not None
        assert np.isfinite(x.grad).all()


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_training_mode_scales_survivors(self):
        rng = np.random.default_rng(8)
        x = Tensor(np.ones((200, 10)))
        out = F.dropout(x, 0.5, training=True, rng=rng).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        # Roughly half the entries survive.
        assert 0.4 < (out > 0).mean() < 0.6

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_zero_rate_identity(self):
        x = Tensor(np.ones(5))
        np.testing.assert_array_equal(F.dropout(x, 0.0, training=True).data, x.data)


def one_edge_per_score(segments: np.ndarray, num_segments: int) -> EdgeGroups:
    """Edge ``e`` runs from node ``e`` into ``segments[e]``: source scores are edge scores."""
    return EdgeGroups(np.arange(segments.shape[0]), segments, segments.shape[0], num_segments)


class TestSegmentSoftmax:
    """The per-target softmax of GAT attention, :func:`repro.nn.tensor.edge_softmax`."""

    def test_segments_sum_to_one(self):
        scores = Tensor(np.random.default_rng(9).normal(size=8))
        segments = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        edges = one_edge_per_score(segments, 3)
        out = edge_softmax(scores, Tensor(np.zeros(3)), edges, 0.2).data
        for segment in range(3):
            np.testing.assert_allclose(out[segments == segment].sum(), 1.0, atol=1e-9)

    def test_single_edge_segment_gets_probability_one(self):
        edges = one_edge_per_score(np.array([0, 1]), 2)
        out = edge_softmax(Tensor(np.array([3.0, -1.0])), Tensor(np.zeros(2)), edges, 0.2).data
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-9)

    def test_multihead_scores(self):
        rng = np.random.default_rng(10)
        edges = one_edge_per_score(np.array([0, 0, 1, 1, 1, 1]), 2)
        out = edge_softmax(Tensor(rng.normal(size=(6, 2))), Tensor(rng.normal(size=(2, 2))),
                           edges, 0.2).data
        np.testing.assert_allclose(out[:2].sum(axis=0), np.ones(2), atol=1e-9)
        np.testing.assert_allclose(out[2:].sum(axis=0), np.ones(2), atol=1e-9)

    def test_gradient_flows(self):
        rng = np.random.default_rng(11)
        score_src = Tensor(rng.normal(size=5), requires_grad=True)
        score_dst = Tensor(rng.normal(size=2), requires_grad=True)
        out = edge_softmax(score_src, score_dst, one_edge_per_score(np.array([0, 0, 1, 1, 1]), 2),
                           0.2)
        (out * out).sum().backward()
        for scores in (score_src, score_dst):
            assert scores.grad is not None
            assert np.isfinite(scores.grad).all()


class TestPairwiseCosine:
    def test_diagonal_is_one(self):
        x = Tensor(np.random.default_rng(12).normal(size=(6, 4)))
        sims = F.pairwise_cosine_similarity(x).data
        np.testing.assert_allclose(np.diag(sims), np.ones(6), atol=1e-9)

    def test_symmetric_and_bounded(self):
        x = Tensor(np.random.default_rng(13).normal(size=(5, 3)))
        sims = F.pairwise_cosine_similarity(x).data
        np.testing.assert_allclose(sims, sims.T, atol=1e-10)
        assert (sims <= 1.0 + 1e-9).all() and (sims >= -1.0 - 1e-9).all()


class TestPropertyBased:
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_always_sum_to_one(self, n, c):
        rng = np.random.default_rng(n * 13 + c)
        probs = F.softmax(Tensor(rng.normal(size=(n, c)) * 5)).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(n), atol=1e-9)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_nonnegative(self, n):
        rng = np.random.default_rng(n)
        logits = Tensor(rng.normal(size=(n, 4)))
        targets = rng.integers(0, 4, size=n)
        assert F.cross_entropy(logits, targets).item() >= 0.0
