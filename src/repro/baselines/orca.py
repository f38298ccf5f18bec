"""ORCA and ORCA-ZM baselines (Cao, Brbic & Leskovec, ICLR 2022).

ORCA is an end-to-end open-world SSL method built on three terms:

1. a supervised cross-entropy on labeled samples with an
   *uncertainty-adaptive margin* that slows down the learning of seen classes
   so their intra-class variance stays comparable to novel classes;
2. a pairwise objective that pulls each sample toward its most similar batch
   neighbour in probability space (pseudo-positive pairs); and
3. a regularization term that discourages assigning every unlabeled sample to
   seen classes (implemented as maximum-entropy regularization of the mean
   prediction).

ORCA-ZM removes the margin (Zero Margin).  As in the paper, the vision
encoder is replaced by the GAT encoder and prediction uses the classification
head (an end-to-end method).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import TrainerConfig
from ..core.inference import InferenceResult
from ..core.losses import (
    entropy_regularization,
    margin_cross_entropy_loss,
    nearest_neighbors,
    pairwise_similarity_loss,
)
from ..core.registry import register_method
from ..core.trainer import GraphTrainer
from ..datasets.splits import OpenWorldDataset
from ..nn import functional as F
from ..nn.tensor import Tensor


@register_method(
    "orca",
    end_to_end=True,
    default_epochs=50,
    description="Uncertainty-adaptive margin + pairwise objective (ICLR 2022)",
)
class ORCATrainer(GraphTrainer):
    """ORCA with the uncertainty-adaptive margin."""

    method_name = "ORCA"
    use_margin = True

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 margin_scale: float = 1.0, entropy_weight: float = 0.1,
                 pairwise_weight: float = 1.0,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.margin_scale = margin_scale
        self.entropy_weight = entropy_weight
        self.pairwise_weight = pairwise_weight
        self._current_uncertainty = 1.0

    def on_epoch_start(self, epoch: int) -> None:
        """Estimate the unlabeled-data uncertainty that controls the margin."""
        if not self.use_margin:
            self._current_uncertainty = 0.0
            return
        logits = self.head_logits()
        test_nodes = self.dataset.split.test_nodes
        probs = F.row_softmax(logits[test_nodes])
        # Uncertainty = 1 - mean max probability over unlabeled nodes.
        self._current_uncertainty = float(1.0 - probs.max(axis=1).mean())

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        labeled_positions = np.where(manual >= 0)[0]

        logits1 = self.head(view1)
        probabilities = F.softmax(logits1, axis=-1)

        # Pairwise objective on every batch node (pseudo-positive = nearest
        # neighbour by embedding cosine similarity).
        loss = (pairwise_similarity_loss(probabilities, nearest_neighbors(view1))
                * self.pairwise_weight)

        if labeled_positions.shape[0] > 0:
            margin = self.margin_scale * self._current_uncertainty if self.use_margin else 0.0
            supervised = margin_cross_entropy_loss(
                logits1.gather_rows(labeled_positions), manual[labeled_positions], margin
            )
            loss = loss + supervised

        if self.entropy_weight > 0:
            loss = loss + entropy_regularization(probabilities) * self.entropy_weight
        return loss

    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        """End-to-end prediction with the classification head."""
        return self.predict_with_head(num_novel_classes, seed, embeddings)


@register_method(
    "orca-zm",
    end_to_end=True,
    default_epochs=50,
    description="ORCA without the uncertainty-adaptive margin (zero margin)",
)
class ORCAZMTrainer(ORCATrainer):
    """ORCA with the margin mechanism removed (Zero Margin)."""

    method_name = "ORCA-ZM"
    use_margin = False
