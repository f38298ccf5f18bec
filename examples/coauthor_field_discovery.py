"""Discovering emerging research fields in a coauthor network.

This example reproduces the motivating scenario of the paper's introduction
(Figure 1a): a coauthor network where authors are labeled with their primary
research field, but new fields keep emerging and labels exist only for the
established ("seen") fields.  The task is to classify every unlabeled author
into a seen field or one of several newly emerging fields.

The script compares three strategies:

* a C+1 style pipeline (OODGAT†): classify seen fields, detect "out of
  distribution" authors, and post-cluster them;
* a classifier-based open-world SSL baseline (OpenCon) that tends to be
  biased toward the seen fields; and
* OpenIMA, which balances seen and novel fields via bias-reduced pseudo
  labels.

Run with:  python examples/coauthor_field_discovery.py
"""

from __future__ import annotations

import numpy as np

from repro.core import OpenIMAConfig, OpenIMATrainer
from repro.core.config import fast_config
from repro.core.registry import build_method
from repro.datasets import load_open_world_dataset
from repro.metrics import open_world_accuracy


def evaluate(name: str, trainer, dataset) -> None:
    """Print per-group accuracy for one trained model."""
    result = trainer.predict()
    test_nodes = dataset.split.test_nodes
    accuracy = open_world_accuracy(
        result.predictions[test_nodes],
        dataset.labels[test_nodes],
        dataset.split.seen_classes,
    )
    gap = abs(accuracy.seen - accuracy.novel)
    print(f"{name:12s} overall={accuracy.overall:.3f}  established fields={accuracy.seen:.3f}  "
          f"emerging fields={accuracy.novel:.3f}  gap={gap:.3f}")


def main() -> None:
    # The coauthor-physics profile: 5 research fields, half of them "emerging"
    # (novel).  Each established field has a handful of labeled authors.
    dataset = load_open_world_dataset("coauthor-physics", seed=1, scale=0.4)
    split = dataset.split
    print(
        f"Coauthor network with {dataset.graph.num_nodes} authors, "
        f"{dataset.graph.num_edges // 2} collaborations, "
        f"{split.num_seen} established fields, {split.num_novel} emerging fields, "
        f"{split.train_nodes.shape[0]} labeled authors."
    )

    trainer_config = fast_config(max_epochs=10, seed=1, encoder_kind="gcn", batch_size=512)

    # Baseline 1: C+1 open-world node classification extended by post-clustering.
    oodgat = build_method("oodgat", dataset, trainer_config.with_updates(max_epochs=30))
    oodgat.fit()
    evaluate("OODGAT+", oodgat, dataset)

    # Baseline 2: classifier-based open-world SSL (biased toward seen fields).
    opencon = build_method("opencon", dataset, trainer_config.with_updates(max_epochs=30))
    opencon.fit()
    evaluate("OpenCon", opencon, dataset)

    # OpenIMA.
    openima = OpenIMATrainer(dataset, OpenIMAConfig(trainer=trainer_config))
    openima.fit()
    evaluate("OpenIMA", openima, dataset)

    # Inspect one discovered emerging field: which authors were grouped into it?
    result = openima.predict()
    test_nodes = split.test_nodes
    novel_predictions = result.predictions[test_nodes]
    discovered = [p for p in np.unique(novel_predictions)
                  if p not in set(split.seen_classes.tolist())]
    if discovered:
        field = discovered[0]
        members = test_nodes[novel_predictions == field]
        true_fields = dataset.labels[members]
        values, counts = np.unique(true_fields, return_counts=True)
        dominant = values[counts.argmax()]
        purity = counts.max() / counts.sum()
        print(
            f"\nDiscovered field #{field}: {members.shape[0]} authors, "
            f"{purity:.0%} of them actually belong to ground-truth field {dominant}."
        )


if __name__ == "__main__":
    main()
