"""The OpenIMA method (Section IV of the paper).

OpenIMA trains a GAT encoder and a linear classification head from scratch
with the objective

    L_OpenIMA = L_BPCL + eta * L_CE                      (Eq. 6)
    L_BPCL    = L_BPCL^emb + L_BPCL^logit                (Eq. 9)

where the BPCL losses are supervised-contrastive objectives whose positive
pairs come from manual labels *and* bias-reduced pseudo labels (unsupervised
K-Means + Hungarian alignment + confidence-based selection).  Inference is
two-stage: K-Means over the final embeddings followed by cluster-class
alignment; on large graphs the paper instead predicts with the classification
head and adds a pairwise loss to combat over-fitting of seen classes — both
refinements are implemented behind ``OpenIMAConfig.large_scale``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from typing import Dict

from ..datasets.splits import OpenWorldDataset
from ..nn import functional as F
from ..nn.tensor import Tensor
from .config import OpenIMAConfig, TrainerConfig
from .inference import InferenceResult
from .losses import (
    bpcl_loss,
    cross_entropy_loss,
    nearest_neighbors,
    pairwise_similarity_loss,
)
from .pseudo_labels import PseudoLabels, generate_pseudo_labels
from .registry import register_method
from .trainer import GraphTrainer


def build_openima(dataset: OpenWorldDataset, config=None,
                  num_novel_classes: Optional[int] = None,
                  **overrides) -> "OpenIMATrainer":
    """Registry builder: construct OpenIMA from any config flavour.

    ``config`` may be ``None``, a :class:`TrainerConfig` (wrapped into an
    :class:`OpenIMAConfig`), or a full :class:`OpenIMAConfig`.  ``overrides``
    are OpenIMAConfig fields.  Unless ``large_scale`` is explicitly given,
    it defaults from the dataset's profile metadata (ogbn-Arxiv/Products).
    """
    if config is None:
        config = OpenIMAConfig()
    elif isinstance(config, TrainerConfig):
        config = OpenIMAConfig(trainer=config)
    elif not isinstance(config, OpenIMAConfig):
        raise TypeError(
            f"openima expects a TrainerConfig or OpenIMAConfig, got {type(config).__name__}"
        )
    if "large_scale" not in overrides and not config.large_scale:
        if bool(dataset.metadata.get("large_scale", False)):
            overrides["large_scale"] = True
    if num_novel_classes is not None:
        overrides["num_novel_classes"] = int(num_novel_classes)
    if overrides:
        config = config.with_updates(**overrides)
    return OpenIMATrainer(dataset, config)


@register_method(
    "openima",
    display_name="OpenIMA",
    end_to_end=False,
    default_epochs=20,
    config_cls=OpenIMAConfig,
    builder=build_openima,
    description="BPCL + CE with bias-reduced pseudo labels (the paper's method)",
)
class OpenIMATrainer(GraphTrainer):
    """Trainer implementing the full OpenIMA objective and inference."""

    method_name = "OpenIMA"

    def __init__(self, dataset: OpenWorldDataset, config: Optional[OpenIMAConfig] = None):
        config = config if config is not None else OpenIMAConfig()
        super().__init__(dataset, config.trainer,
                         num_novel_classes=config.num_novel_classes)
        self.openima_config = config
        self.pseudo_labels: Optional[PseudoLabels] = None
        self._pseudo_lookup = -np.ones(dataset.graph.num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    @property
    def full_config(self) -> OpenIMAConfig:
        return self.openima_config

    def configure_inference(self, inference) -> None:
        super().configure_inference(inference)
        # Keep the nested trainer section in sync so checkpoints written
        # after the swap persist the new inference settings.
        self.openima_config = self.openima_config.with_updates(trainer=self.config)

    def configure_clustering(self, clustering) -> None:
        super().configure_clustering(clustering)
        self.openima_config = self.openima_config.with_updates(trainer=self.config)

    def extra_state(self) -> Dict[str, np.ndarray]:
        # The pseudo-label lookup is the only cross-epoch state the loss
        # depends on; persisting it keeps resumed runs exact even when
        # ``pseudo_label_refresh > 1`` (no refresh at the resume epoch).
        return {"pseudo_lookup": self._pseudo_lookup.copy()}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        if "pseudo_lookup" in state:
            self._pseudo_lookup = np.asarray(state["pseudo_lookup"], dtype=np.int64).copy()

    # ------------------------------------------------------------------
    # Pseudo labels
    # ------------------------------------------------------------------
    def refresh_pseudo_labels(self) -> Optional[PseudoLabels]:
        """Recompute bias-reduced pseudo labels from the current embeddings."""
        if not self.openima_config.use_pseudo_labels:
            return None
        embeddings = self.node_embeddings()
        split = self.dataset.split
        self.pseudo_labels = generate_pseudo_labels(
            embeddings,
            labeled_indices=split.train_nodes,
            labeled_internal_labels=self._train_internal,
            num_seen_classes=self.label_space.num_seen,
            num_clusters=self.label_space.num_total,
            rho=self.openima_config.rho,
            engine=self.clustering_engine,
        )
        self._pseudo_lookup = self.pseudo_labels.label_lookup(self.dataset.graph.num_nodes)
        return self.pseudo_labels

    def on_epoch_start(self, epoch: int) -> None:
        if not self.openima_config.use_pseudo_labels:
            return
        warmup = max(0, self.openima_config.pseudo_label_warmup)
        if epoch < warmup:
            return
        refresh = max(1, self.openima_config.pseudo_label_refresh)
        if (epoch - warmup) % refresh == 0:
            self.refresh_pseudo_labels()

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def batch_group_ids(self, batch_nodes: np.ndarray) -> np.ndarray:
        """Combine manual labels and pseudo labels into contrastive group ids.

        Manual labels take precedence; nodes with neither get -1 (their only
        positive is their second dropout view).  The returned array has
        length 2N to match the stacked two-view batch layout.
        """
        manual = self.batch_manual_labels(batch_nodes)
        pseudo = self._pseudo_lookup[batch_nodes]
        combined = np.where(manual >= 0, manual, pseudo)
        return np.concatenate([combined, combined])

    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        config = self.openima_config
        if not (config.use_embedding_bpcl or config.use_logit_bpcl
                or config.use_cross_entropy or config.large_scale):
            raise ValueError("OpenIMA configuration disables every loss term")
        group_ids = self.batch_group_ids(batch_nodes)

        use_bpcl = config.use_embedding_bpcl or config.use_logit_bpcl
        loss: Optional[Tensor] = None
        if use_bpcl:
            embeddings = self.normalized_views(view1, view2)
            logits = (
                self.normalized_logit_views(view1, view2)
                if config.use_logit_bpcl
                else None
            )
            loss = bpcl_loss(
                embeddings,
                logits,
                group_ids,
                temperature=self.config.temperature,
                use_embedding_level=config.use_embedding_bpcl,
                use_logit_level=config.use_logit_bpcl,
            )

        if config.use_cross_entropy:
            manual = self.batch_manual_labels(batch_nodes)
            labeled_positions = np.where(manual >= 0)[0]
            if labeled_positions.shape[0] > 0:
                logits_labeled = self.head(view1.gather_rows(labeled_positions))
                ce = cross_entropy_loss(logits_labeled, manual[labeled_positions])
                scaled = ce * config.eta
                loss = scaled if loss is None else loss + scaled

        if config.large_scale and config.pairwise_loss_weight > 0:
            loss_pairwise = self._pairwise_loss(view1, view2) * config.pairwise_loss_weight
            loss = loss_pairwise if loss is None else loss + loss_pairwise

        if loss is None:
            # Every enabled term was inapplicable to this batch (e.g. a
            # CE-only ablation hit a batch without labeled nodes).  Return a
            # zero loss connected to the graph so the training step is a
            # harmless no-op.
            loss = (view1 * 0.0).sum()
        return loss

    def _pairwise_loss(self, view1: Tensor, view2: Tensor) -> Tensor:
        """ORCA-style pairwise loss used by the large-graph refinement.

        Each node in the batch is paired with its most similar node (cosine
        similarity of the first view, excluding itself) and their head
        probability vectors are pulled together.
        """
        probabilities = F.softmax(self.head(view2), axis=-1)
        return pairwise_similarity_loss(probabilities, nearest_neighbors(view1))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        """Two-stage inference (default) or head-based inference (large graphs)."""
        if not self.openima_config.large_scale:
            return super().predict(num_novel_classes=num_novel_classes, seed=seed,
                                   embeddings=embeddings)
        # The large-scale profile clusters with MiniBatch-KMeans (paper
        # Section V); predictions come from the head.
        return self.predict_with_head(num_novel_classes, seed, embeddings,
                                      mini_batch=True)


def train_openima(dataset: OpenWorldDataset, config: Optional[OpenIMAConfig] = None
                  ) -> OpenIMATrainer:
    """Convenience helper: construct, fit, and return an OpenIMA trainer."""
    trainer = OpenIMATrainer(dataset, config)
    trainer.fit()
    return trainer
