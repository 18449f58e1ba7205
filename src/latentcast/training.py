"""Shared minibatch training loop with early stopping on validation loss."""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (InsufficientDataError, ShapeError, TrainingAbortError, _check_int,
                     _seeded_rng)
from .nn.losses import LossKind, loss, loss_with_grad
from .nn.network import Model
from .nn.optim import Optimizer, make_optimizer

logger = logging.getLogger(__name__)

# items per eval-mode forward of every inference entry point
EVAL_BATCH = 64


@dataclass
class TrainSchedule:
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10

    def __post_init__(self) -> None:
        _check_int("batch size", self.batch_size)
        _check_int("epochs", self.max_epochs)
        _check_int("patience", self.patience, 0)


@dataclass
class TrainRun:
    """Outcome of one training: loss curves, selected epoch, final metrics.
    ``fit`` fills ``final_val_loss``; the public entry points
    ``train_autoencoder`` and ``train_seq_model`` (and the stage functions
    and CLI commands built on them) also fill ``final_train_loss``."""

    config: dict
    seed: int
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)
    best_epoch: int = -1
    final_train_loss: float = math.nan
    final_val_loss: float = math.nan
    final_test_loss: float | None = None


def predict_batched(model: Model, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward of a batch, ``EVAL_BATCH`` items at a time."""
    parts = [model.forward(x[i : i + EVAL_BATCH], train=False)
             for i in range(0, len(x), EVAL_BATCH)]
    return np.concatenate(parts, axis=0)


def _predict_items(model: Model, x: np.ndarray, rank: int) -> np.ndarray:
    """``predict_batched`` over one item of rank ``rank`` or a batch of them."""
    if x.ndim == rank:
        return predict_batched(model, x[None])[0]
    if x.ndim != rank + 1:
        raise ShapeError(f"expected one item of rank {rank} or a batch of rank {rank + 1}, "
                         f"got shape {x.shape}")
    return predict_batched(model, x)


def evaluate_loss(
    model: Model, x: np.ndarray, y: np.ndarray, loss_kind: LossKind, batch_size: int = EVAL_BATCH
) -> float:
    """Mean per-element loss over a dataset in eval mode (batch-size
    independent): RMSE is the root of the dataset's mean squared error, not
    a mean of per-batch roots."""
    if len(x) == 0:
        raise InsufficientDataError("no samples to score")
    root = LossKind(loss_kind) is LossKind.RMSE
    total = 0.0
    for i in range(0, len(x), batch_size):
        pred = model.forward(x[i : i + batch_size], train=False)
        value = loss(LossKind.MSE if root else loss_kind, pred, y[i : i + batch_size])
        total += value * len(pred)
    return math.sqrt(total / len(x)) if root else total / len(x)


def fit(
    model: Model,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray | None = None,
    val_y: np.ndarray | None = None,
    schedule: TrainSchedule | None = None,
    optimizer: Optimizer | None = None,
) -> TrainRun:
    """Minibatch training of a model that carries its ``config`` (loss,
    optimizer kind, learning rate) and ``seed``; keeps and restores the
    best-validation snapshot.

    With no validation set, early stopping tracks the training loss instead
    and ``final_val_loss`` is the training set's eval-mode score; with one,
    the training set is not scored. ``final_train_loss`` stays NaN.
    Fully deterministic in (seed, data order, schedule).
    """
    config = model.config
    schedule = schedule or TrainSchedule()
    optimizer = optimizer or make_optimizer(config.optimizer, config.learning_rate)
    loss_kind = config.loss
    run = TrainRun(config=asdict(config), seed=model.seed)
    rng = _seeded_rng(model.seed)
    n = len(train_x)
    if n == 0:
        raise InsufficientDataError("no training samples")
    have_val = val_x is not None and len(val_x) > 0
    best = math.inf
    best_snapshot = model.snapshot()
    stale = 0
    for epoch in range(schedule.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            model.zero_grads()
            pred = model.forward(train_x[idx], train=True)
            value, dpred = loss_with_grad(loss_kind, pred, train_y[idx])
            if not math.isfinite(value):
                raise TrainingAbortError(
                    f"non-finite {loss_kind.value} loss at epoch {epoch}, step {start // schedule.batch_size}"
                )
            model.backward(dpred, need_dx=False)
            optimizer.step(model.params(), model.grads())
            epoch_loss += value * len(idx)
        train_loss = epoch_loss / n
        run.train_curve.append(train_loss)
        if have_val:
            val_loss = evaluate_loss(model, val_x, val_y, loss_kind, schedule.batch_size)
            run.val_curve.append(val_loss)
        else:
            val_loss = train_loss
        logger.debug("epoch %d train=%.6g val=%.6g", epoch, train_loss, val_loss)
        if val_loss < best:
            best = val_loss
            best_snapshot = model.snapshot()
            run.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > schedule.patience:
                break
    model.restore(best_snapshot)
    if have_val and run.best_epoch >= 0:  # the restored snapshot is the one this score was taken on
        run.final_val_loss = run.val_curve[run.best_epoch]
    else:
        x, y = (val_x, val_y) if have_val else (train_x, train_y)
        run.final_val_loss = evaluate_loss(model, x, y, loss_kind, schedule.batch_size)
    return run


def _fit_scored(model, train_x, train_y, val_x, val_y, schedule, optimizer) -> TrainRun:
    """``fit``, then ``final_train_loss``: the training set scored with the restored parameters."""
    run = fit(model, train_x, train_y, val_x, val_y, schedule, optimizer)
    run.final_train_loss = run.final_val_loss if not run.val_curve else evaluate_loss(
        model, train_x, train_y, model.config.loss, (schedule or TrainSchedule()).batch_size)
    return run
