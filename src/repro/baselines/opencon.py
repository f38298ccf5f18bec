"""OpenCon baseline (Sun & Li, TMLR 2023) and its two-stage variant OpenCon‡.

OpenCon learns class prototypes and assigns pseudo labels to out-of-
distribution samples by nearest-prototype matching; contrastive learning
with these pseudo labels shapes the representation space, and cross-entropy
on labeled samples anchors the seen classes.  The original method relies on
a pre-trained vision encoder; here the GAT encoder is trained from scratch
as in the paper's adaptation.

* ``OpenConTrainer`` predicts with the classification head (end-to-end).
* ``OpenConTwoStageTrainer`` (OpenCon‡ in Table III) reuses the learned
  representations but predicts with K-Means + Hungarian alignment.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.config import TrainerConfig
from ..core.inference import InferenceResult
from ..core.losses import cross_entropy_loss, supervised_contrastive_loss
from ..core.registry import register_method
from ..core.trainer import GraphTrainer
from ..datasets.splits import OpenWorldDataset
from ..nn.tensor import Tensor


@register_method(
    "opencon",
    end_to_end=True,
    default_epochs=100,
    description="Prototype-based contrastive learning with OOD split",
)
class OpenConTrainer(GraphTrainer):
    """OpenCon: prototype-based pseudo labels + contrastive learning + CE."""

    method_name = "OpenCon"

    def __init__(self, dataset: OpenWorldDataset, config: Optional[TrainerConfig] = None,
                 ood_threshold: float = 0.5, prototype_momentum: float = 0.9,
                 supervised_weight: float = 1.0,
                 num_novel_classes: Optional[int] = None):
        config = config if config is not None else TrainerConfig()
        super().__init__(dataset, config, num_novel_classes=num_novel_classes)
        self.ood_threshold = ood_threshold
        self.prototype_momentum = prototype_momentum
        self.supervised_weight = supervised_weight
        self.prototypes = np.zeros((self.label_space.num_total, config.encoder.out_dim))
        self._prototypes_initialized = False

    # ------------------------------------------------------------------
    # Persistence hooks (prototypes are EMA state carried across epochs)
    # ------------------------------------------------------------------
    def extra_state(self) -> dict:
        return {
            "prototypes": self.prototypes.copy(),
            "prototypes_initialized": np.array(int(self._prototypes_initialized)),
        }

    def load_extra_state(self, state: dict) -> None:
        if "prototypes" in state:
            self.prototypes = np.asarray(state["prototypes"], dtype=np.float64).copy()
        if "prototypes_initialized" in state:
            self._prototypes_initialized = bool(int(state["prototypes_initialized"]))

    # ------------------------------------------------------------------
    # Prototype maintenance
    # ------------------------------------------------------------------
    def on_epoch_start(self, epoch: int) -> None:
        """Initialize / refresh prototypes from current embeddings."""
        embeddings = self.node_embeddings()
        normalized = _l2_rows(embeddings)
        split = self.dataset.split
        new_prototypes = self.prototypes.copy()

        # Seen-class prototypes from labeled nodes.
        for internal in range(self.label_space.num_seen):
            members = split.train_nodes[self._train_internal == internal]
            if members.shape[0]:
                new_prototypes[internal] = normalized[members].mean(axis=0)

        # Novel prototypes from clustering the unlabeled embeddings far from
        # the seen prototypes (through the configured clustering strategy;
        # the stateless path keeps the per-epoch refresh deterministic).
        if self.label_space.num_novel > 0:
            unlabeled = split.test_nodes
            if unlabeled.shape[0] >= self.label_space.num_novel:
                seen_protos = _l2_rows(new_prototypes[: self.label_space.num_seen])
                scores = normalized[unlabeled] @ seen_protos.T
                ood_mask = scores.max(axis=1) < self.ood_threshold
                candidates = unlabeled[ood_mask]
                if candidates.shape[0] < self.label_space.num_novel:
                    candidates = unlabeled
                result = self.clustering_engine.cluster(
                    normalized[candidates], self.label_space.num_novel, n_init=1)
                new_prototypes[self.label_space.num_seen:] = result.centers

        if self._prototypes_initialized:
            momentum = self.prototype_momentum
            self.prototypes = momentum * self.prototypes + (1 - momentum) * new_prototypes
        else:
            self.prototypes = new_prototypes
            self._prototypes_initialized = True

    def _prototype_pseudo_labels(self, embeddings: np.ndarray) -> np.ndarray:
        """Nearest-prototype assignment in cosine space."""
        normalized = _l2_rows(embeddings)
        prototypes = _l2_rows(self.prototypes)
        return (normalized @ prototypes.T).argmax(axis=1)

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        manual = self.batch_manual_labels(batch_nodes)
        pseudo = self._prototype_pseudo_labels(view1.numpy())
        combined = np.where(manual >= 0, manual, pseudo)
        group_ids = np.concatenate([combined, combined])

        features = self.normalized_views(view1, view2)
        loss = supervised_contrastive_loss(features, group_ids, self.config.temperature)

        labeled_positions = np.where(manual >= 0)[0]
        if labeled_positions.shape[0] > 0:
            logits = self.head(view1.gather_rows(labeled_positions))
            loss = loss + cross_entropy_loss(logits, manual[labeled_positions]) * \
                self.supervised_weight
        return loss

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        """End-to-end prediction with the classification head."""
        return self.predict_with_head(num_novel_classes, seed, embeddings)


@register_method(
    "opencon-two-stage",
    end_to_end=True,
    default_epochs=100,
    description="OpenCon trained end-to-end but evaluated with two-stage inference",
)
class OpenConTwoStageTrainer(OpenConTrainer):
    """OpenCon‡: identical training, two-stage (K-Means) prediction."""

    method_name = "OpenCon-TwoStage"

    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        return GraphTrainer.predict(self, num_novel_classes=num_novel_classes,
                                    seed=seed, embeddings=embeddings)


def _l2_rows(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, eps)
