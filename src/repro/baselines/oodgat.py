"""OODGAT† baseline (Song & Wang, KDD 2022), extended for open-world SSL.

OODGAT is a C+1 open-world *node classification* method: it trains a GAT
classifier over the seen classes while encouraging a bimodal entropy
distribution so that out-of-distribution (OOD) nodes — those belonging to
novel classes — can be detected by their high prediction entropy.  As in the
paper's evaluation, we extend it to the open-world SSL setting (the †
variant) by clustering the detected OOD nodes with K-Means into the required
number of novel classes.
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
from ..nn.tensor import Tensor


@register_method(
    "oodgat",
    end_to_end=True,
    default_epochs=100,
    description="Entropy-separated OOD detection + clustering of detected outliers",
)
class OODGATTrainer(GraphTrainer):
    """OODGAT†: entropy-separated C+1 classifier + post-clustering of OOD nodes."""

    method_name = "OODGAT"

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 entropy_weight: float = 0.1, ood_quantile: float = 0.5,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.entropy_weight = entropy_weight
        self.ood_quantile = ood_quantile

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        labeled_positions = np.where(manual >= 0)[0]
        unlabeled_positions = np.where(manual < 0)[0]

        # Classification over seen classes only (the head's first S outputs).
        logits = self.head(view1)
        seen_logits = logits[:, : self.label_space.num_seen]

        # Entropy separation: low entropy for labeled (in-distribution) nodes,
        # high entropy for unlabeled nodes, sharpening the OOD signal.
        probabilities = F.softmax(seen_logits, axis=-1)
        entropy = -(probabilities * (probabilities + 1e-12).log()).sum(axis=1)
        loss = None
        if labeled_positions.shape[0] > 0:
            loss = cross_entropy_loss(
                seen_logits.gather_rows(labeled_positions), manual[labeled_positions]
            )
            loss = loss + entropy.gather_rows(labeled_positions).mean() * self.entropy_weight
        if unlabeled_positions.shape[0] > 0:
            unlabeled_term = -entropy.gather_rows(unlabeled_positions).mean() * self.entropy_weight
            loss = unlabeled_term if loss is None else loss + unlabeled_term
        if loss is None:
            loss = (seen_logits * 0.0).sum()
        return loss

    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        """Seen-class prediction by the head; OOD nodes clustered by K-Means."""
        if embeddings is None:
            embeddings = self.node_embeddings()
        num_novel = (
            num_novel_classes if num_novel_classes is not None else self.label_space.num_novel
        )
        seed = self.config.seed if seed is None else seed

        logits = embeddings @ self.head.linear.weight.data
        seen_logits = logits[:, : self.label_space.num_seen]
        probabilities = F.row_softmax(seen_logits)
        entropy = -(probabilities * np.log(probabilities + 1e-12)).sum(axis=1)

        # Nodes above the entropy quantile (computed on unlabeled nodes) are OOD.
        test_nodes = self.dataset.split.test_nodes
        threshold = np.quantile(entropy[test_nodes], 1.0 - self.ood_quantile)
        is_ood = entropy > threshold
        is_ood[self.dataset.split.train_nodes] = False
        is_ood[self.dataset.split.val_nodes] = False

        internal = probabilities.argmax(axis=1)
        ood_nodes = np.where(is_ood)[0]
        if ood_nodes.shape[0] >= num_novel and num_novel > 0:
            clusters = self.clustering_engine.cluster(
                embeddings[ood_nodes], num_novel, seed=seed, n_init=1).labels
            internal[ood_nodes] = self.label_space.num_seen + clusters
        predictions = self.label_space.to_original(internal)
        return self.with_clusters(predictions, embeddings, num_novel, seed)
