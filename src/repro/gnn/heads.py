"""Classification heads placed on top of the GNN encoders."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor


class ClassificationHead(Module):
    """Linear classification head producing logits over ``num_classes``.

    The head covers both seen and novel classes (``|C_l| + |C_n|`` outputs),
    as required by the paper's logit-level contrastive objective and by the
    end-to-end baselines.  It has no bias, so its logits are
    ``embeddings @ weight`` (what :func:`repro.core.inference.head_predict`
    reads).  ``normalized_logits`` returns the L2-normalized
    logits ``e_i`` of Eq. 8.
    """

    def __init__(self, in_features: int, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, num_classes, bias=False, rng=rng)
        self.num_classes = num_classes

    def forward(self, embeddings: Tensor) -> Tensor:
        return self.linear(embeddings)

    def normalized_logits(self, embeddings: Tensor) -> Tensor:
        """L2-normalized logits used by the logit-level BPCL loss (Eq. 8)."""
        return F.l2_normalize(self.forward(embeddings), axis=-1)


class ProjectionHead(Module):
    """Two-layer MLP projection head used by some contrastive baselines."""

    def __init__(self, in_features: int, hidden_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.layer1 = Linear(in_features, hidden_dim, rng=rng)
        self.layer2 = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, embeddings: Tensor) -> Tensor:
        return self.layer2(self.layer1(embeddings).relu())
