"""Training objectives: BPCL, InfoNCE, SupCon, cross-entropy, and the
auxiliary losses used by the end-to-end baselines (ORCA margin CE, pairwise
similarity, entropy regularization, self-distillation).

All losses take autodiff :class:`~repro.nn.tensor.Tensor` inputs for model
outputs and plain numpy arrays for labels/masks (constants in the graph).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, cat, no_grad


def _positive_mask(group_ids: np.ndarray) -> np.ndarray:
    """Positive-pair mask for a batch of 2N augmented points.

    ``group_ids`` has length 2N; the two views of node ``i`` occupy rows
    ``i`` and ``i + N``.  Two rows are positives if they share a non-negative
    group id, or if they are the two views of the same node (always).  The
    diagonal is excluded.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    total = group_ids.shape[0]
    if total % 2 != 0:
        raise ValueError("expected an even number of augmented samples (2N)")
    half = total // 2
    same_group = (group_ids[:, None] == group_ids[None, :]) & (group_ids[:, None] >= 0)
    # The two dropout views of the same node are always positives (SimCSE).
    view_pair = np.zeros((total, total), dtype=bool)
    idx = np.arange(half)
    view_pair[idx, idx + half] = True
    view_pair[idx + half, idx] = True
    mask = same_group | view_pair
    np.fill_diagonal(mask, False)
    return mask


def supervised_contrastive_loss(
    features: Tensor,
    group_ids: np.ndarray,
    temperature: float = 0.7,
) -> Tensor:
    """Generalized SupCon/InfoNCE loss over 2N augmented, normalized features.

    This single function implements Eq. 7 and Eq. 8 of the paper (and plain
    InfoNCE / SupCon as special cases):

    * rows with ``group_id >= 0`` treat every other row with the same id as a
      positive (manual or pseudo label available);
    * rows with ``group_id < 0`` only have their own second view as positive
      (InfoNCE behaviour).

    ``features`` must already be L2-normalized; pass embeddings for the
    embedding-level loss or normalized logits for the logit-level loss.

    The loss is one autodiff op (:func:`repro.nn.functional.supervised_contrastive`)
    whose backward is the closed-form SupCon gradient: with ``S = Z Z^T / tau``
    over the 2N rows and ``M`` the positive mask,
    ``G = (softmax(S) - M / |P|) * g / (2N tau)`` and ``dZ = G Z + G^T Z``.
    """
    return F.supervised_contrastive(features, _positive_mask(group_ids), temperature)


def info_nce_loss(features: Tensor, temperature: float = 0.7) -> Tensor:
    """Unsupervised InfoNCE: only the paired dropout view is positive."""
    total = features.shape[0]
    group_ids = -np.ones(total, dtype=np.int64)
    return supervised_contrastive_loss(features, group_ids, temperature)


def cross_entropy_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy over integer ``targets`` (re-exported for symmetry)."""
    return F.cross_entropy(logits, targets)


def margin_cross_entropy_loss(logits: Tensor, targets: np.ndarray, margin: float) -> Tensor:
    """ORCA's uncertainty-adaptive margin cross-entropy.

    The margin is subtracted from the logit of the ground-truth class, which
    slows down the learning of seen classes so their intra-class variance
    stays comparable to the novel classes'.  ``margin = 0`` recovers plain
    cross-entropy (ORCA-ZM).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if margin == 0.0:
        return F.cross_entropy(logits, targets)
    adjustment = np.zeros(logits.shape)
    adjustment[np.arange(targets.shape[0]), targets] = -margin
    return F.cross_entropy(logits + Tensor(adjustment), targets)


def nearest_neighbors(embeddings: Tensor) -> np.ndarray:
    """Each row's most cosine-similar *other* row in the batch, the
    pseudo-positive pairs of :func:`pairwise_similarity_loss`.

    Only the argmax is read, so no autodiff graph is recorded (and the
    fresh similarity matrix can be edited in place).
    """
    with no_grad():
        similarities = F.pairwise_cosine_similarity(embeddings).numpy()
    np.fill_diagonal(similarities, -np.inf)
    return similarities.argmax(axis=1)


def pairwise_similarity_loss(probabilities: Tensor, target_pairs: np.ndarray) -> Tensor:
    """ORCA-style pairwise objective.

    ``probabilities`` are softmax outputs of shape (n, c); ``target_pairs`` is
    an (n,) array giving, for each row, the index of its most similar row in
    the batch (its pseudo-positive).  The loss is the negative log inner
    product of the probability vectors of each pair, pulling paired samples
    toward the same class distribution.
    """
    target_pairs = np.asarray(target_pairs, dtype=np.int64)
    paired = probabilities.gather_rows(target_pairs)
    inner = (probabilities * paired).sum(axis=1)
    return -(inner + 1e-8).log().mean()


def entropy_regularization(probabilities: Tensor) -> Tensor:
    """Negative entropy of the *mean* prediction (SimGCD regularizer).

    Minimizing this term maximizes the entropy of the average class
    distribution, preventing the classifier from collapsing all unlabeled
    nodes onto the seen classes.
    """
    mean_prob = probabilities.mean(axis=0)
    entropy = -(mean_prob * (mean_prob + 1e-12).log()).sum()
    return -entropy


def self_distillation_loss(student_logits: Tensor, teacher_probs: np.ndarray,
                           temperature: float = 0.1) -> Tensor:
    """SimGCD self-distillation: CE between sharpened teacher and student.

    ``teacher_probs`` are detached probabilities from the other augmented
    view, sharpened with ``temperature`` before being used as soft targets.
    """
    teacher = np.asarray(teacher_probs, dtype=np.float64)
    sharpened = teacher ** (1.0 / temperature)
    sharpened = sharpened / sharpened.sum(axis=1, keepdims=True)
    log_student = F.log_softmax(student_logits, axis=1)
    return -(log_student * Tensor(sharpened)).sum(axis=1).mean()


def confidence_pseudo_label_loss(logits: Tensor, pseudo_labels: np.ndarray,
                                 confidence_mask: np.ndarray) -> Tensor:
    """OpenLDN-style CE on classifier pseudo labels above a confidence threshold."""
    confidence_mask = np.asarray(confidence_mask, dtype=bool)
    if not confidence_mask.any():
        return Tensor(0.0)
    selected = np.where(confidence_mask)[0]
    return F.cross_entropy(logits.gather_rows(selected), np.asarray(pseudo_labels)[selected])


def bpcl_loss(
    embeddings_two_views: Tensor,
    normalized_logits_two_views: Optional[Tensor],
    group_ids: np.ndarray,
    temperature: float = 0.7,
    use_embedding_level: bool = True,
    use_logit_level: bool = True,
) -> Tensor:
    """Full BPCL objective (Eq. 9): embedding-level + logit-level contrastive.

    Parameters
    ----------
    embeddings_two_views:
        L2-normalized embeddings of the 2N augmented batch points.
    normalized_logits_two_views:
        L2-normalized logits of the same points (may be None if the logit
        level is disabled).
    group_ids:
        Length-2N class ids combining manual labels and bias-reduced pseudo
        labels; -1 for nodes with neither.
    """
    if not use_embedding_level and not use_logit_level:
        raise ValueError("at least one BPCL level must be enabled")
    terms = []
    if use_embedding_level:
        terms.append(supervised_contrastive_loss(embeddings_two_views, group_ids, temperature))
    if use_logit_level:
        if normalized_logits_two_views is None:
            raise ValueError("logit-level BPCL requires normalized logits")
        terms.append(
            supervised_contrastive_loss(normalized_logits_two_views, group_ids, temperature)
        )
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def concat_views(view1: Tensor, view2: Tensor) -> Tensor:
    """Stack two augmented views row-wise into the 2N-point batch layout."""
    return cat([view1, view2], axis=0)
