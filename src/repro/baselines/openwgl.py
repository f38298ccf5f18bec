"""OpenWGL† baseline (Wu, Pan & Zhu, KAIS 2021), extended for open-world SSL.

OpenWGL performs open-world graph learning with an uncertainty-aware
(variational) node representation: nodes whose class probabilities stay low
and uncertain across stochastic forward passes are rejected as belonging to
unseen classes.  We reproduce its character with a GAT classifier over the
seen classes trained with cross-entropy plus a class-uncertainty loss, and
detect novel-class nodes by thresholding the maximum softmax probability
averaged over several dropout-perturbed forward passes.  As in the paper's
evaluation, the detected OOD nodes are post-clustered with K-Means into the
required number of novel classes (the † extension).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import TrainerConfig
from ..core.inference import InferenceResult
from ..core.losses import cross_entropy_loss
from ..core.registry import register_method
from ..core.trainer import GraphTrainer
from ..datasets.splits import OpenWorldDataset
from ..nn import functional as F
from ..nn.tensor import Tensor, no_grad


@register_method(
    "openwgl",
    end_to_end=True,
    default_epochs=100,
    description="Uncertain-node rejection via multi-sample dropout confidence",
)
class OpenWGLTrainer(GraphTrainer):
    """OpenWGL†: uncertainty-aware seen-class classifier + OOD post-clustering."""

    method_name = "OpenWGL"

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 uncertainty_weight: float = 0.1, num_uncertainty_samples: int = 4,
                 rejection_quantile: float = 0.5,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.uncertainty_weight = uncertainty_weight
        self.num_uncertainty_samples = num_uncertainty_samples
        self.rejection_quantile = rejection_quantile

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        labeled_positions = np.where(manual >= 0)[0]
        unlabeled_positions = np.where(manual < 0)[0]

        logits = self.head(view1)
        seen_logits = logits[:, : self.label_space.num_seen]
        loss = None
        if labeled_positions.shape[0] > 0:
            loss = cross_entropy_loss(
                seen_logits.gather_rows(labeled_positions), manual[labeled_positions]
            )

        # Class-uncertainty loss: minimize the maximum probability of
        # unlabeled nodes so that unseen-class nodes keep low confidence.
        if unlabeled_positions.shape[0] > 0 and self.uncertainty_weight > 0:
            probabilities = F.softmax(seen_logits.gather_rows(unlabeled_positions), axis=-1)
            uncertainty_term = probabilities.max(axis=1).mean() * self.uncertainty_weight
            loss = uncertainty_term if loss is None else loss + uncertainty_term
        if loss is None:
            loss = (seen_logits * 0.0).sum()
        return loss

    def _mean_confidence(self, num_samples: int) -> np.ndarray:
        """Maximum seen-class probability averaged over stochastic passes."""
        accumulated = None
        # Dropout stays active for uncertainty sampling.
        with self.encoder.training_mode(True), no_grad():
            for _ in range(num_samples):
                embeddings = self.encoder(self.dataset.graph).numpy()
                logits = embeddings @ self.head.linear.weight.data
                seen = logits[:, : self.label_space.num_seen]
                probabilities = F.row_softmax(seen)
                confidence = probabilities.max(axis=1)
                accumulated = confidence if accumulated is None else accumulated + confidence
        return accumulated / num_samples

    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        if embeddings is None:
            embeddings = self.node_embeddings()
        num_novel = (
            num_novel_classes if num_novel_classes is not None else self.label_space.num_novel
        )
        seed = self.config.seed if seed is None else seed

        confidence = self._mean_confidence(self.num_uncertainty_samples)
        test_nodes = self.dataset.split.test_nodes
        threshold = np.quantile(confidence[test_nodes], self.rejection_quantile)
        is_ood = confidence < threshold
        is_ood[self.dataset.split.train_nodes] = False
        is_ood[self.dataset.split.val_nodes] = False

        logits = embeddings @ self.head.linear.weight.data
        internal = logits[:, : self.label_space.num_seen].argmax(axis=1)
        ood_nodes = np.where(is_ood)[0]
        if ood_nodes.shape[0] >= num_novel and num_novel > 0:
            clusters = self.clustering_engine.cluster(
                embeddings[ood_nodes], num_novel, seed=seed, n_init=1).labels
            internal[ood_nodes] = self.label_space.num_seen + clusters
        predictions = self.label_space.to_original(internal)
        return self.with_clusters(predictions, embeddings, num_novel, seed)
