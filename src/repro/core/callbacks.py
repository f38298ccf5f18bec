"""Callback hooks for :meth:`GraphTrainer.fit`.

The trainer calls ``on_fit_start``, ``on_epoch_start``, ``on_epoch_end`` and
``on_fit_end`` on every callback; ``on_epoch_end`` receives a ``logs`` dict
(``{"epoch": int, "loss": float}``) that callbacks may extend for callbacks
running after them.  A callback stops training by setting
``trainer.stop_training = True`` — the loop exits at the end of the current
epoch, so a checkpoint written afterwards resumes cleanly.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..obs import REGISTRY
from ..obs.clock import monotonic as _monotonic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trainer import GraphTrainer, TrainingHistory


class Callback:
    """Base class; override any subset of the hooks."""

    def on_fit_start(self, trainer: "GraphTrainer") -> None:
        """Called once before the first epoch of a ``fit`` call."""

    def on_epoch_start(self, trainer: "GraphTrainer", epoch: int) -> None:
        """Called at the start of every epoch (after the trainer's own hook)."""

    def on_epoch_end(self, trainer: "GraphTrainer", epoch: int, logs: dict) -> None:
        """Called after every epoch with the epoch's aggregated logs."""

    def on_fit_end(self, trainer: "GraphTrainer", history: "TrainingHistory") -> None:
        """Called once when the ``fit`` call finishes (normally or early)."""


class CallbackList(Callback):
    """Dispatch every hook to an ordered list of callbacks."""

    def __init__(self, callbacks: Optional[Iterable[Callback]] = None):
        self.callbacks: List[Callback] = list(callbacks or [])

    def on_fit_start(self, trainer) -> None:
        for callback in self.callbacks:
            callback.on_fit_start(trainer)

    def on_epoch_start(self, trainer, epoch) -> None:
        for callback in self.callbacks:
            callback.on_epoch_start(trainer, epoch)

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(trainer, epoch, logs)

    def on_fit_end(self, trainer, history) -> None:
        for callback in self.callbacks:
            callback.on_fit_end(trainer, history)


class LossLogger(Callback):
    """Print (or collect) the mean training loss every ``every`` epochs."""

    def __init__(self, every: int = 1, print_fn: Callable[[str], None] = print):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.print_fn = print_fn

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        if (epoch + 1) % self.every == 0:
            loss = logs.get("loss")
            loss_repr = f"{loss:.4f}" if isinstance(loss, float) else str(loss)
            self.print_fn(f"[{trainer.method_name}] epoch {epoch + 1}  loss {loss_repr}")


class EarlyStopping(Callback):
    """Stop training when a monitored log value stops improving.

    Monitors ``logs[monitor]`` (default: the epoch loss).  Training stops
    after ``patience`` consecutive epochs without an improvement of at least
    ``min_delta``.
    """

    def __init__(self, monitor: str = "loss", patience: int = 3,
                 min_delta: float = 0.0, mode: str = "min"):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = float(min_delta)
        self.mode = mode
        self.best: float = math.inf if mode == "min" else -math.inf
        self.stopped_epoch: Optional[int] = None
        self._bad_epochs = 0

    def _improved(self, value: float) -> bool:
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_fit_start(self, trainer) -> None:
        self.best = math.inf if self.mode == "min" else -math.inf
        self.stopped_epoch = None
        self._bad_epochs = 0

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        value = logs.get(self.monitor)
        if value is None or not math.isfinite(value):
            return
        if self._improved(value):
            self.best = float(value)
            self._bad_epochs = 0
            return
        self._bad_epochs += 1
        if self._bad_epochs >= self.patience:
            self.stopped_epoch = epoch
            trainer.stop_training = True


class EvaluationCallback(Callback):
    """Record open-world accuracy every ``every`` epochs.

    This is the callback form of the legacy ``TrainerConfig.eval_every``
    setting; the trainer installs it automatically when ``eval_every > 0``.
    The engine's forward/cache counters are exposed to later callbacks as
    ``logs["inference"]``.
    """

    def __init__(self, every: int):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        if (epoch + 1) % self.every == 0:
            accuracy = trainer.evaluate()
            trainer.history.record_evaluation(epoch, accuracy)
            logs["accuracy"] = accuracy.overall
            logs["inference"] = trainer.inference_engine.stats()


class MetricsCallback(Callback):
    """Publish per-epoch training telemetry to :data:`repro.obs.REGISTRY`.

    Per epoch: the mean loss and the post-step gradient norm as gauges
    (``repro_train_loss`` / ``repro_train_grad_norm``, labelled by method),
    an epoch counter, and an epoch-duration histogram.  The gradient norm is
    readable at epoch end because ``_train_step`` zeroes gradients at the
    *start* of the next step, so the last batch's gradients persist on the
    optimizer's parameters.

    Purely additive — it never mutates the trainer or ``logs`` keys other
    callbacks rely on, so it can be appended to any callback stack.
    """

    _LOSS = REGISTRY.gauge(
        "repro_train_loss",
        "Mean training loss of the most recent epoch, by method.",
        labelnames=("method",))
    _GRAD_NORM = REGISTRY.gauge(
        "repro_train_grad_norm",
        "Global L2 gradient norm after the last step of the epoch, by method.",
        labelnames=("method",))
    _EPOCHS = REGISTRY.counter(
        "repro_train_epochs_total",
        "Training epochs completed, by method.",
        labelnames=("method",))
    _EPOCH_SECONDS = REGISTRY.histogram(
        "repro_train_epoch_seconds",
        "Wall time of one training epoch.")

    def __init__(self):
        self._epoch_started: Optional[float] = None

    @staticmethod
    def grad_norm(trainer: "GraphTrainer") -> Optional[float]:
        """Global L2 norm over every parameter gradient (None if all unset)."""
        total = 0.0
        seen = False
        for parameter in trainer.optimizer.parameters:
            grad = getattr(parameter, "grad", None)
            if grad is None:
                continue
            seen = True
            total += float((grad ** 2).sum())
        return math.sqrt(total) if seen else None

    def on_epoch_start(self, trainer, epoch) -> None:
        self._epoch_started = _monotonic()

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        method = trainer.method_name
        loss = logs.get("loss")
        if isinstance(loss, float) and math.isfinite(loss):
            self._LOSS.set(loss, method=method)
        norm = self.grad_norm(trainer)
        if norm is not None:
            self._GRAD_NORM.set(norm, method=method)
        self._EPOCHS.inc(method=method)
        if self._epoch_started is not None:
            self._EPOCH_SECONDS.observe(_monotonic() - self._epoch_started)
            self._epoch_started = None
        logs["grad_norm"] = norm


class PeriodicCheckpoint(Callback):
    """Write a resumable checkpoint every ``every`` epochs.

    ``path`` may contain an ``{epoch}`` placeholder to keep one checkpoint
    per epoch; otherwise the same path is overwritten (a rolling "latest"
    checkpoint).  Checkpoints are written with
    :func:`repro.api.checkpoint.save_trainer_checkpoint`, so they can be
    reloaded with ``OpenWorldClassifier.load`` or the CLI ``resume`` command.
    """

    def __init__(self, path: str, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = str(path)
        self.every = every
        self.saved_paths: List[str] = []

    def on_epoch_end(self, trainer, epoch, logs) -> None:
        if (epoch + 1) % self.every != 0:
            return
        from ..api.checkpoint import save_trainer_checkpoint

        target = self.path.format(epoch=epoch + 1)
        save_trainer_checkpoint(trainer, target)
        self.saved_paths.append(target)
