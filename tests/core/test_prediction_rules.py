"""Each registered method's prediction rule, read through ``GraphTrainer.predict``.

Every method clusters once (K-Means + Hungarian alignment) and keeps those
clusters on its result; the predictions come from the method's rule: the
two-stage clusters, the classification head's argmax, or OOD rejection with
the rejected nodes clustered into the novel classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OpenIMAConfig, fast_config
from repro.core.inference import head_predict, two_stage_predict
from repro.core.openima import OpenIMATrainer
from repro.core.registry import METHODS, build_method

#: The rule each registered method predicts with (a new method must add one).
RULES = {
    "infonce": "two-stage",
    "infonce+supcon": "two-stage",
    "infonce+supcon+ce": "two-stage",
    "openima": "two-stage",
    "opencon-two-stage": "two-stage",
    "orca": "head",
    "orca-zm": "head",
    "simgcd": "head",
    "openldn": "head",
    "opencon": "head",
    "oodgat": "rejection",
    "openwgl": "rejection",
}


def one_epoch_config():
    return fast_config(max_epochs=1, seed=0, encoder_kind="gcn", batch_size=128)


def assert_two_stage_clusters(trainer, result, embeddings, mini_batch):
    """``result`` carries the two-stage clusters of ``embeddings``; returns them."""
    expected = two_stage_predict(
        embeddings, trainer.dataset, num_novel_classes=trainer.label_space.num_novel,
        seed=trainer.config.seed, mini_batch=mini_batch, engine=trainer.clustering_engine)
    np.testing.assert_array_equal(result.cluster_result.labels, expected.cluster_result.labels)
    np.testing.assert_array_equal(result.cluster_result.centers,
                                  expected.cluster_result.centers)
    assert result.alignment.mapping == expected.alignment.mapping
    return expected


def head_argmax(trainer, embeddings):
    return head_predict(embeddings, trainer.head.linear.weight.data, trainer.label_space)


@pytest.mark.parametrize("name", METHODS.names())
def test_predict_follows_the_method_rule(small_dataset, name):
    trainer = build_method(name, small_dataset, config=one_epoch_config())
    trainer.fit()
    embeddings = trainer.node_embeddings()
    result = trainer.predict(embeddings=embeddings)

    two_stage = assert_two_stage_clusters(trainer, result, embeddings, mini_batch=False)
    rule = RULES[name]
    if rule == "two-stage":
        np.testing.assert_array_equal(result.predictions, two_stage.predictions)
    elif rule == "head":
        np.testing.assert_array_equal(result.predictions, head_argmax(trainer, embeddings))
    else:
        split = small_dataset.split
        seen = np.isin(result.predictions, split.seen_classes)
        assert seen[split.train_nodes].all() and seen[split.val_nodes].all()
        # The rejected test nodes were clustered into novel classes.
        assert not seen[split.test_nodes].all()


def test_large_scale_openima_predicts_with_head_and_mini_batch_clusters(small_dataset):
    trainer = OpenIMATrainer(small_dataset, OpenIMAConfig(trainer=one_epoch_config(),
                                                          large_scale=True))
    trainer.fit()
    embeddings = trainer.node_embeddings()
    result = trainer.predict(embeddings=embeddings)

    np.testing.assert_array_equal(result.predictions, head_argmax(trainer, embeddings))
    assert_two_stage_clusters(trainer, result, embeddings, mini_batch=True)
    exact = two_stage_predict(embeddings, small_dataset, seed=trainer.config.seed)
    assert not np.array_equal(result.cluster_result.centers, exact.cluster_result.centers)
