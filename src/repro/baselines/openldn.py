"""OpenLDN baseline (Rizve et al., ECCV 2022).

OpenLDN trains a classifier over seen + novel classes with (1) cross-entropy
on labeled samples, (2) a pairwise-similarity objective that decides, for
pairs of unlabeled samples, whether they belong to the same class (driven by
embedding similarity), and (3) cross-entropy on *classifier-generated* pseudo
labels whose confidence exceeds a threshold.  Because the pseudo labels come
from a classifier trained mostly on seen classes, they are biased toward the
seen classes — exactly the failure mode OpenIMA's bias-reduced pseudo labels
address.  Prediction uses the classification head.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import TrainerConfig
from ..core.losses import (
    confidence_pseudo_label_loss,
    cross_entropy_loss,
    nearest_neighbors,
    pairwise_similarity_loss,
)
from ..core.registry import register_method
from ..core.trainer import GraphTrainer
from ..datasets.splits import OpenWorldDataset
from ..nn import functional as F
from ..nn.tensor import Tensor


@register_method(
    "openldn",
    end_to_end=True,
    default_epochs=100,
    description="Pairwise-similarity pseudo labels with bi-level style weighting",
)
class OpenLDNTrainer(GraphTrainer):
    """OpenLDN with the GAT encoder and classifier-generated pseudo labels."""

    method_name = "OpenLDN"
    predicts_with_head = True

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 confidence_threshold: float = 0.7, pairwise_weight: float = 1.0,
                 pseudo_weight: float = 1.0,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.confidence_threshold = confidence_threshold
        self.pairwise_weight = pairwise_weight
        self.pseudo_weight = pseudo_weight

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        labeled_positions = np.where(manual >= 0)[0]
        unlabeled_positions = np.where(manual < 0)[0]

        logits1 = self.head(view1)
        probabilities = F.softmax(logits1, axis=-1)

        # Pairwise similarity objective on the batch.
        loss = (pairwise_similarity_loss(probabilities, nearest_neighbors(view1))
                * self.pairwise_weight)

        if labeled_positions.shape[0] > 0:
            loss = loss + cross_entropy_loss(
                logits1.gather_rows(labeled_positions), manual[labeled_positions]
            )

        # Classifier-based pseudo labels on confident unlabeled nodes
        # (computed from the second view, used to supervise the first).
        if unlabeled_positions.shape[0] > 0 and self.pseudo_weight > 0:
            with_probabilities = F.softmax(self.head(view2), axis=-1).numpy()
            pseudo = with_probabilities.argmax(axis=1)
            confident = with_probabilities.max(axis=1) >= self.confidence_threshold
            mask = np.zeros(batch_nodes.shape[0], dtype=bool)
            mask[unlabeled_positions] = confident[unlabeled_positions]
            pseudo_term = confidence_pseudo_label_loss(logits1, pseudo, mask)
            loss = loss + pseudo_term * self.pseudo_weight
        return loss
