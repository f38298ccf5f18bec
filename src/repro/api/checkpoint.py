"""Versioned trainer checkpoints: npz weights + JSON manifest.

A checkpoint is a directory with two files:

* ``manifest.json`` — format version, method name, full method config,
  label-space, dataset loader arguments, epochs trained, optimizer step
  count, training history, and the trainer's RNG state.
* ``weights.npz`` — every encoder/head parameter (dotted names prefixed
  with ``encoder.`` / ``head.``), the optimizer moment buffers
  (``optim.<name>.<index>``), any method-specific extra arrays
  (``extra.<name>``), and the clustering engine's carried centroids /
  online counts (``clustering.<name>``).

Loading rebuilds the dataset from the recorded loader arguments (or uses a
caller-provided dataset), reconstructs the trainer through the unified
method registry, and restores weights, optimizer state, RNG state, and
method extras — so ``fit`` after ``load`` continues *identically* to an
uninterrupted run, and ``predict`` is bitwise-identical to the saved model.
A malformed checkpoint (unreadable or truncated file, missing or unknown
manifest key, malformed manifest value, non-finite or misshapen array)
raises :class:`CheckpointError` naming the file and the cause.
"""

from __future__ import annotations

import contextlib
import json
import math
import zipfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..core.registry import METHODS
from ..core.trainer import GraphTrainer, TrainingHistory
from ..datasets.splits import OpenWorldDataset
from ..datasets.synthetic import load_open_world_dataset

#: Bump when the on-disk layout changes incompatibly; loading accepts only
#: this version.  Version 2 dropped the ``trainer.parallel`` config section;
#: version 3 dropped ``trainer.encoder.backend``,
#: ``trainer.mini_batch_kmeans`` and ``trainer.kmeans_batch_size``; version 4
#: dropped ``trainer.clustering.{warm_start, refresh_tolerance, seed}``,
#: ``trainer.inference.{cache, partial_refresh}``, ``trainer.sampling.seed``,
#: the ``"sampling"`` entry of ``rng_state`` and the ``refit_count`` and
#: ``version_behind`` entries of ``clustering_state``.
CHECKPOINT_FORMAT_VERSION = 4

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.npz"

#: Every top-level manifest key; :func:`read_manifest` rejects any other set.
MANIFEST_KEYS = frozenset((
    "format_version", "method", "display_name", "config_class", "config",
    "method_kwargs", "num_novel_classes", "label_space", "dataset",
    "epochs_trained", "optimizer", "rng_state", "clustering_state", "history",
))


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is malformed or incompatible."""


@contextlib.contextmanager
def _manifest_value(path: Path, key: str):
    """Re-raise the error a malformed manifest ``key`` value causes as
    :class:`CheckpointError` naming the key."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path / MANIFEST_FILE}: malformed {key!r} value: {exc!r}") from exc


def _method_key(trainer: GraphTrainer) -> str:
    """Registry key for a trainer, even if it was constructed by hand."""
    key = getattr(trainer, "_method_key", None)
    if key is not None:
        return key
    for spec in METHODS.specs():
        if type(trainer) is spec.trainer_cls:
            return spec.name
    raise CheckpointError(
        f"trainer class {type(trainer).__name__} is not in the method registry; "
        "construct it via repro.core.registry.build_method to make it checkpointable"
    )


def _dataset_spec(dataset: OpenWorldDataset) -> dict:
    loader_args = dataset.metadata.get("loader_args")
    if loader_args is not None:
        return {"source": "registry", "loader_args": dict(loader_args)}
    return {"source": "external", "name": dataset.name,
            "split_seed": int(dataset.split.seed)}


def save_trainer_checkpoint(trainer: GraphTrainer, path) -> Path:
    """Write a resumable checkpoint for ``trainer`` into directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    method = _method_key(trainer)
    spec = METHODS.get(method)
    config = trainer.full_config

    arrays = {}
    for name, value in trainer.encoder.state_dict().items():
        arrays[f"encoder.{name}"] = value
    for name, value in trainer.head.state_dict().items():
        arrays[f"head.{name}"] = value
    optimizer_state = trainer.optimizer.state_dict()
    optimizer_meta = {}
    for name, value in optimizer_state.items():
        if isinstance(value, (list, tuple)):
            for index, buffer in enumerate(value):
                arrays[f"optim.{name}.{index}"] = np.asarray(buffer)
        else:
            optimizer_meta[name] = int(value)
    for name, value in trainer.extra_state().items():
        arrays[f"extra.{name}"] = np.asarray(value)
    clustering_meta, clustering_arrays = trainer.clustering_engine.state_dict()
    for name, value in clustering_arrays.items():
        arrays[f"clustering.{name}"] = np.asarray(value)
    np.savez(path / WEIGHTS_FILE, **arrays)

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "method": method,
        "display_name": spec.display_name,
        "config_class": type(config).__name__,
        "config": config.to_dict(),
        "method_kwargs": dict(getattr(trainer, "_method_kwargs", {})),
        "num_novel_classes": int(trainer.label_space.num_novel),
        "label_space": {
            "seen_classes": [int(c) for c in trainer.label_space.seen_classes],
            "num_novel": int(trainer.label_space.num_novel),
        },
        "dataset": _dataset_spec(trainer.dataset),
        "epochs_trained": int(trainer.epochs_trained),
        "optimizer": optimizer_meta,
        "rng_state": trainer.rng_state(),
        # Clustering-engine RNG and counters; the online strategy's carried
        # centroids and counts live in weights.npz under clustering.*.
        "clustering_state": clustering_meta,
        "history": {
            # Non-finite losses (diverged runs) become null so the manifest
            # stays strict JSON; the loader maps null back to NaN.
            "losses": [float(v) if math.isfinite(v) else None
                       for v in trainer.history.losses],
            "evaluations": list(trainer.history.evaluations),
        },
    }
    (path / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


def read_manifest(path) -> dict:
    """Read and validate a checkpoint manifest."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"{manifest_path} holds a JSON {type(manifest).__name__}, not an object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint at {path} has format version {version!r}; this build "
            f"reads only version {CHECKPOINT_FORMAT_VERSION}; retrain the model "
            f"with this build and save it again"
        )
    missing = sorted(MANIFEST_KEYS - set(manifest))
    unknown = sorted(set(manifest) - MANIFEST_KEYS)
    if missing or unknown:
        raise CheckpointError(
            f"{manifest_path} has missing keys {missing or 'none'} and unknown "
            f"keys {unknown or 'none'}"
        )
    return manifest


def _read_weights(path: Path) -> dict:
    """Every array of ``weights.npz``, each checked to be finite."""
    weights_path = path / WEIGHTS_FILE
    try:
        with np.load(weights_path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{weights_path} is unreadable: {exc}") from exc
    for name, value in arrays.items():
        if np.issubdtype(value.dtype, np.inexact) and not np.isfinite(value).all():
            raise CheckpointError(f"{weights_path}: array {name!r} is not finite")
    return arrays


def _rebuild_dataset(manifest: dict, path) -> OpenWorldDataset:
    spec = manifest.get("dataset") or {}
    if spec.get("source") != "registry":
        raise CheckpointError(
            f"checkpoint at {path} was trained on an external dataset "
            f"({spec.get('name', '?')!r}); pass the dataset explicitly to load()"
        )
    args = dict(spec["loader_args"])
    return load_open_world_dataset(**args)


def load_trainer_checkpoint(
    path,
    dataset: Optional[OpenWorldDataset] = None,
) -> Tuple[GraphTrainer, dict]:
    """Restore a trainer (and its manifest) from a checkpoint directory.

    If ``dataset`` is ``None`` it is regenerated from the loader arguments
    recorded in the manifest.  The restored label space is verified against
    the manifest so a drifted dataset fails loudly instead of mis-mapping
    classes.
    """
    path = Path(path)
    manifest = read_manifest(path)

    if dataset is None:
        dataset = _rebuild_dataset(manifest, path)

    method = manifest["method"]
    with _manifest_value(path, "method"):
        spec = METHODS.get(method)
    with _manifest_value(path, "config"):
        config = spec.config_cls.from_dict(manifest["config"])
    # Methods with a custom builder carry num_novel_classes inside their own
    # config; passing it again would mutate the config away from what was
    # saved.  The label-space check below still catches dataset drift.
    num_novel = None if spec.builder is not None else manifest["num_novel_classes"]
    trainer = METHODS.build(
        method,
        dataset,
        config=config,
        num_novel_classes=num_novel,
        **manifest["method_kwargs"],
    )

    with _manifest_value(path, "label_space"):
        saved_seen = [int(c) for c in manifest["label_space"]["seen_classes"]]
        saved_novel = int(manifest["label_space"]["num_novel"])
    actual_seen = [int(c) for c in trainer.label_space.seen_classes]
    if saved_seen != actual_seen or saved_novel != trainer.label_space.num_novel:
        raise CheckpointError(
            f"label-space mismatch: checkpoint (seen={saved_seen}, "
            f"num_novel={saved_novel}) vs dataset "
            f"(seen={actual_seen}, num_novel={trainer.label_space.num_novel}); "
            "the dataset does not match the one the checkpoint was trained on"
        )

    arrays = _read_weights(path)

    def take(prefix: str) -> dict:
        plen = len(prefix)
        return {name[plen:]: value for name, value in arrays.items()
                if name.startswith(prefix)}

    for part, module in (("encoder", trainer.encoder), ("head", trainer.head)):
        try:
            module.load_state_dict(take(f"{part}."), strict=True)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"{path / WEIGHTS_FILE}: the {part} arrays do not fit the "
                f"{method} model: {exc}") from exc

    optimizer_state: dict = dict(manifest["optimizer"])
    buffers: dict = {}
    for name, value in take("optim.").items():
        buffer_name, _, index = name.rpartition(".")
        buffers.setdefault(buffer_name, {})[int(index)] = value
    for buffer_name, indexed in buffers.items():
        optimizer_state[buffer_name] = [indexed[i] for i in sorted(indexed)]
    if optimizer_state:
        trainer.optimizer.load_state_dict(optimizer_state)

    trainer.load_extra_state(take("extra."))
    with _manifest_value(path, "clustering_state"):
        trainer.clustering_engine.load_state_dict(manifest["clustering_state"],
                                                  take("clustering."))
    with _manifest_value(path, "rng_state"):
        trainer.set_rng_state(manifest["rng_state"])
    with _manifest_value(path, "epochs_trained"):
        trainer.epochs_trained = int(manifest["epochs_trained"])
    history = manifest["history"]
    trainer.history = TrainingHistory(
        losses=[float("nan") if v is None else float(v)
                for v in history.get("losses", [])],
        evaluations=list(history.get("evaluations", [])),
    )
    return trainer, manifest
