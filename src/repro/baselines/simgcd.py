"""SimGCD baseline (Wen, Zhao & Qi, ICCV 2023).

SimGCD is a parametric generalized-category-discovery method: a classifier
over seen + novel classes is trained with (1) supervised cross-entropy on
labeled samples, (2) self-distillation between the two augmented views of
every sample (the sharpened prediction of one view supervises the other),
and (3) a mean-entropy maximization regularizer that prevents collapse onto
the seen classes.  Prediction uses the classification head (end-to-end).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import TrainerConfig
from ..core.losses import (
    cross_entropy_loss,
    entropy_regularization,
    self_distillation_loss,
    supervised_contrastive_loss,
)
from ..core.registry import register_method
from ..core.trainer import GraphTrainer
from ..datasets.splits import OpenWorldDataset
from ..nn import functional as F
from ..nn.tensor import Tensor


@register_method(
    "simgcd",
    end_to_end=True,
    default_epochs=50,
    description="Self-distillation with entropy regularization (GCD family)",
)
class SimGCDTrainer(GraphTrainer):
    """SimGCD with the GAT encoder in place of the pre-trained ViT."""

    method_name = "SimGCD"
    predicts_with_head = True

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 distill_temperature: float = 0.1, entropy_weight: float = 1.0,
                 supervised_weight: float = 1.0, contrastive_weight: float = 0.35,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.distill_temperature = distill_temperature
        self.entropy_weight = entropy_weight
        self.supervised_weight = supervised_weight
        self.contrastive_weight = contrastive_weight

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        labeled_positions = np.where(manual >= 0)[0]

        logits1 = self.head(view1)
        logits2 = self.head(view2)

        # Self-distillation: view2's sharpened (detached) prediction teaches view1.
        teacher = F.softmax(logits2, axis=-1).numpy()
        loss = self_distillation_loss(logits1, teacher, temperature=self.distill_temperature)

        # Representation-level unsupervised contrastive term.
        if self.contrastive_weight > 0:
            features = self.normalized_views(view1, view2)
            group_ids = -np.ones(2 * batch_nodes.shape[0], dtype=np.int64)
            loss = loss + supervised_contrastive_loss(
                features, group_ids, self.config.temperature
            ) * self.contrastive_weight

        if labeled_positions.shape[0] > 0:
            supervised = cross_entropy_loss(
                logits1.gather_rows(labeled_positions), manual[labeled_positions]
            )
            loss = loss + supervised * self.supervised_weight

        probabilities = F.softmax(logits1, axis=-1)
        loss = loss + entropy_regularization(probabilities) * self.entropy_weight
        return loss
