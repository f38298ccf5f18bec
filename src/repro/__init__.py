"""OpenIMA: Open-World Semi-Supervised Learning for Node Classification.

A full, from-scratch reproduction of Wang et al. (ICDE 2024).  The package is
organised as:

* :mod:`repro.nn` — numpy autodiff engine, layers, optimizers (PyTorch stand-in).
* :mod:`repro.graphs` — graph containers, utilities, synthetic generators.
* :mod:`repro.datasets` — synthetic profiles of the paper's seven benchmarks
  and the open-world train/val/test split protocol.
* :mod:`repro.gnn` — GAT / GCN encoders and classification heads.
* :mod:`repro.inference` — layer-wise all-node inference engine with a
  parameter-version-keyed embedding cache.
* :mod:`repro.clustering` — K-Means (full, mini-batch, semi-supervised), the
  strategy-based clustering engine (exact/minibatch/online refresh), and
  clustering-quality metrics (silhouette, NMI/ARI).
* :mod:`repro.assignment` — Hungarian algorithm and cluster-class alignment.
* :mod:`repro.metrics` — open-world accuracy, variance imbalance/separation
  rates, and the SC&ACC model-selection metric.
* :mod:`repro.core` — the OpenIMA method itself (BPCL losses, bias-reduced
  pseudo labels, two-stage inference, trainer).
* :mod:`repro.baselines` — every baseline from the paper's evaluation.
* :mod:`repro.theory` — the two-Gaussian K-Means model and Theorem 1 checks
  (imported on first access, since it pulls in ``scipy.stats``).
* :mod:`repro.experiments` — runners and builders for every table and figure.
* :mod:`repro.api` — estimator-style facade (``OpenWorldClassifier``) with
  versioned save/load checkpoints and resumable training.
* :mod:`repro.analysis` — invariant linter (``repro lint``, rules R1-R9)
  and opt-in runtime sanitizers (``REPRO_SANITIZE=1``) for the
  concurrency/determinism/cache contracts.

Quickstart::

    from repro.api import OpenWorldClassifier

    clf = OpenWorldClassifier("openima")
    clf.fit("coauthor-cs", scale=0.3)
    print(clf.evaluate())
"""

from . import (
    analysis,
    api,
    assignment,
    baselines,
    clustering,
    core,
    datasets,
    experiments,
    gnn,
    graphs,
    inference,
    metrics,
    nn,
)
from .api import OpenWorldClassifier
from .core import OpenIMAConfig, OpenIMATrainer, train_openima
from .datasets import load_open_world_dataset

__version__ = "1.0.0"


def __getattr__(name: str):
    # repro.theory is imported on first access: it is the only importer of
    # scipy.stats and scipy.optimize, which would otherwise add about a
    # second to every ``import repro`` (and to ``repro serve``'s start).
    if name == "theory":
        import importlib

        return importlib.import_module(".theory", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "analysis",
    "api",
    "nn",
    "graphs",
    "datasets",
    "gnn",
    "inference",
    "clustering",
    "assignment",
    "metrics",
    "core",
    "baselines",
    "theory",
    "experiments",
    "OpenWorldClassifier",
    "OpenIMAConfig",
    "OpenIMATrainer",
    "train_openima",
    "load_open_world_dataset",
    "__version__",
]
