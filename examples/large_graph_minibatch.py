"""OpenIMA on a large, many-class graph (the ogbn-Products-style profile).

The paper's Table IV evaluates OpenIMA on ogbn-Arxiv and ogbn-Products with
three refinements for scale: mini-batch K-Means (Sculley, 2010) replaces
full-batch K-Means, prediction uses the classification head instead of a
final clustering pass, and an ORCA-style pairwise loss counters over-fitting
of the seen classes.  All three are switched on with a single flag
(``OpenIMAConfig.large_scale=True``).

This example trains the standard and the large-scale variants of OpenIMA on
the ogbn-products profile (scaled down) and compares them against ORCA.

Run with:  python examples/large_graph_minibatch.py
"""

from __future__ import annotations

import time

from repro.core import OpenIMAConfig, OpenIMATrainer, SamplingConfig
from repro.core.config import fast_config
from repro.core.registry import build_method
from repro.datasets import load_open_world_dataset


def report(name: str, trainer, elapsed: float) -> None:
    accuracy = trainer.evaluate()
    print(f"{name:22s} all={accuracy.overall:.3f}  seen={accuracy.seen:.3f}  "
          f"novel={accuracy.novel:.3f}  ({elapsed:.1f}s)")


def main() -> None:
    dataset = load_open_world_dataset("ogbn-products", seed=0, scale=0.2)
    print(
        f"Graph: {dataset.graph.num_nodes} nodes, {dataset.graph.num_edges // 2} edges, "
        f"{dataset.graph.num_classes} classes "
        f"({dataset.split.num_seen} seen / {dataset.split.num_novel} novel)"
    )

    # Neighborhood-sampled mini-batches: each training step runs the encoder
    # on the exact 2-hop receptive field of its batch instead of the full
    # graph (same losses as mode="full" when dropout is off, far cheaper per
    # epoch; use mode="sampled" with fanouts for even larger graphs).
    trainer_config = fast_config(max_epochs=8, seed=0, encoder_kind="gcn", batch_size=512,
                                 sampling=SamplingConfig(mode="khop"))
    trainer_config = trainer_config.with_updates(mini_batch_kmeans=True, kmeans_batch_size=512)

    # Standard OpenIMA (two-stage inference with mini-batch K-Means).
    start = time.time()
    standard = OpenIMATrainer(dataset, OpenIMAConfig(trainer=trainer_config))
    standard.fit()
    report("OpenIMA (two-stage)", standard, time.time() - start)

    # Large-scale OpenIMA (head prediction + pairwise loss), as in Table IV.
    start = time.time()
    large = OpenIMATrainer(
        dataset, OpenIMAConfig(trainer=trainer_config, large_scale=True)
    )
    large.fit()
    report("OpenIMA (large-scale)", large, time.time() - start)

    # ORCA baseline for reference.
    start = time.time()
    orca = build_method("orca", dataset, trainer_config.with_updates(max_epochs=16))
    orca.fit()
    report("ORCA", orca, time.time() - start)


if __name__ == "__main__":
    main()
