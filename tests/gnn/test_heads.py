"""Tests for the classification / projection heads and the encoder factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import build_encoder
from repro.gnn.gat import GATEncoder
from repro.gnn.gcn import GCNEncoder
from repro.gnn.heads import ClassificationHead, ProjectionHead
from repro.nn.tensor import Tensor


class TestClassificationHead:
    def test_logit_shape(self):
        head = ClassificationHead(8, 5, rng=np.random.default_rng(0))
        logits = head(Tensor(np.ones((3, 8))))
        assert logits.shape == (3, 5)

    def test_normalized_logits_have_unit_norm(self):
        head = ClassificationHead(8, 5, rng=np.random.default_rng(0))
        normalized = head.normalized_logits(Tensor(np.random.default_rng(1).normal(size=(4, 8))))
        norms = np.linalg.norm(normalized.data, axis=1)
        np.testing.assert_allclose(norms, np.ones(4), atol=1e-9)

    def test_logits_are_embeddings_times_weight(self):
        # head_predict reads the logits as embeddings @ weight: no bias.
        head = ClassificationHead(6, 4, rng=np.random.default_rng(2))
        embeddings = np.random.default_rng(3).normal(size=(10, 6))
        assert head.linear.bias is None
        np.testing.assert_array_equal(head(Tensor(embeddings)).data,
                                      embeddings @ head.linear.weight.data)

    def test_gradients_flow(self):
        head = ClassificationHead(4, 3, rng=np.random.default_rng(5))
        out = head(Tensor(np.ones((2, 4)), requires_grad=True))
        out.sum().backward()
        assert head.linear.weight.grad is not None


class TestProjectionHead:
    def test_shape(self):
        head = ProjectionHead(8, 16, 4, rng=np.random.default_rng(0))
        out = head(Tensor(np.ones((5, 8))))
        assert out.shape == (5, 4)


class TestEncoderFactory:
    def test_builds_gat(self):
        encoder = build_encoder("gat", in_features=8, hidden_dim=8, out_dim=4, num_heads=2)
        assert isinstance(encoder, GATEncoder)

    def test_builds_gcn(self):
        encoder = build_encoder("gcn", in_features=8, hidden_dim=8, out_dim=4)
        assert isinstance(encoder, GCNEncoder)

    def test_case_insensitive(self):
        assert isinstance(build_encoder("GAT", in_features=4), GATEncoder)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            build_encoder("transformer", in_features=4)
