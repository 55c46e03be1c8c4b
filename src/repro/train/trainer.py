"""Training loop with validation-driven early stopping.

Matches the protocol of the paper's pipeline: Adam, gradient clipping,
evaluate NDCG@10 on the validation split each epoch, stop after ``patience``
epochs without improvement, restore the best checkpoint.

The loop is fully instrumented through :mod:`repro.obs` — nested spans
around the fit / epoch / train-pass / eval-pass / step stages, per-epoch
``epoch`` events, and a :class:`~repro.obs.health.TrainerCallback` protocol
for training-health monitors (loss-component tracking, gradient norms,
NaN watchdog).  All of it is zero-cost when telemetry is disabled and no
callbacks are attached.  When a checkpoint path is configured, a JSON run
manifest (config, seed, git SHA, final metrics) is written next to the
checkpoint at the end of ``fit``.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.data.pipeline import PrefetchLoader
from repro.data.sampling import NegativeSampler
from repro.data.splits import DataSplit
from repro.eval.evaluator import evaluate_ranking, precollate
from repro.eval.protocol import CandidateSets
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.schedule import ConstantLR, StepDecay, WarmupCosine
from repro.obs import get_logger, get_telemetry, span

from .history import EpochRecord, History

__all__ = ["TrainConfig", "Trainer"]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyper-parameters (model hyper-parameters live elsewhere)."""

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 3e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    patience: int = 5
    monitor: str = "NDCG@10"
    num_eval_negatives: int = 99
    seed: int = 0
    checkpoint_path: str | None = None
    """When set, the best-so-far model is also written to this .npz path
    (plus a ``<path>.manifest.json`` run manifest at the end of fit)."""
    lr_schedule: str = "constant"
    """Per-epoch LR schedule: "constant", "warmup_cosine", or "step"."""
    warmup_epochs: int = 2
    """Warmup length for the warmup_cosine schedule."""
    step_size: int = 10
    step_gamma: float = 0.5
    """Decay interval/factor for the step schedule."""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.patience < 1:
            raise ValueError("patience must be positive")
        if self.lr_schedule not in ("constant", "warmup_cosine", "step"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")


class Trainer:
    """Fits any :class:`~repro.core.base.SequentialRecommender` on a split.

    Args:
        model: the recommender to fit.
        split: train/valid/test split (validation drives early stopping).
        config: optimization hyper-parameters.
        callbacks: :class:`~repro.obs.health.TrainerCallback` observers
            invoked through the loop (health monitors, custom telemetry).
    """

    def __init__(self, model, split: DataSplit, config: TrainConfig | None = None,
                 callbacks: Sequence = ()):
        self.model = model
        self.split = split
        self.config = config or TrainConfig()
        self.callbacks = list(callbacks)
        self.dataset = split.dataset
        self.sampler = NegativeSampler(self.dataset, np.random.default_rng(self.config.seed + 1))
        # Clamp the negative count so tiny corpora remain evaluable.
        num_negatives = self.config.num_eval_negatives
        if self.dataset.users:
            max_profile = max(len(self.dataset.items_of_user(u))
                              for u in self.dataset.users)
            num_negatives = min(num_negatives,
                                max(1, self.dataset.num_items - max_profile - 1))
        self.valid_candidates = CandidateSets(
            self.dataset, split.valid, num_negatives, seed=self.config.seed + 2,
        )
        # Validation examples and candidates never change between epochs, so
        # the collated evaluation batches are built once (lazily) and reused
        # by every per-epoch ranking pass.
        self._valid_batches: list[tuple] | None = None

    def _validation_batches(self) -> list[tuple]:
        if self._valid_batches is None:
            self._valid_batches = precollate(self.split.valid, self.valid_candidates,
                                             self.dataset.schema)
        return self._valid_batches

    def _train_negatives(self) -> int:
        """Negatives per row the model's ``training_loss`` will request.

        Used to presample candidates on the input pipeline (``Batch.
        candidates``); models expose the count either as a config field
        (``num_train_negatives``) or as the ``num_negatives`` default of
        ``training_loss``.  Returns 0 (no presampling) when undiscoverable.
        """
        model_config = getattr(self.model, "config", None)
        count = getattr(model_config, "num_train_negatives", None)
        if count is None:
            try:
                parameters = inspect.signature(self.model.training_loss).parameters
            except (TypeError, ValueError):
                return 0
            default = parameters.get("num_negatives")
            if default is None or not isinstance(default.default, int):
                return 0
            count = default.default
        return max(int(count), 0)

    def _supports_breakdown(self) -> bool:
        """Whether ``model.training_loss`` can return a per-component split."""
        try:
            parameters = inspect.signature(self.model.training_loss).parameters
        except (TypeError, ValueError):  # builtins / odd callables
            return False
        return "return_breakdown" in parameters

    def _dispatch(self, hook: str, *args) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(self, *args)

    def _train_epoch(self, epoch: int, loader, optimizer,
                     want_breakdown: bool) -> list[float]:
        """One pass over the training loader; returns per-batch losses."""
        losses = []
        for step, batch in enumerate(loader):
            with span("train.step", epoch=epoch, step=step):
                self._dispatch("on_batch_start", epoch, step)
                optimizer.zero_grad()
                if want_breakdown:
                    loss, breakdown = self.model.training_loss(
                        batch, self.sampler, return_breakdown=True)
                else:
                    loss, breakdown = self.model.training_loss(batch, self.sampler), None
                loss.backward()
                clip_grad_norm(self.model.parameters(), self.config.clip_norm)
                optimizer.step()
                value = float(loss.data)
                losses.append(value)
                if self.callbacks:
                    self._dispatch("on_batch_end", epoch, step, value,
                                   breakdown if breakdown is not None
                                   else {"total": value})
        return losses

    def fit(self, verbose: bool = False) -> History:
        """Train with early stopping; the model ends at its best checkpoint."""
        config = self.config
        logger = get_logger("repro.train")
        optimizer = Adam(self.model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        if config.lr_schedule == "warmup_cosine":
            schedule = WarmupCosine(optimizer, warmup_steps=config.warmup_epochs,
                                    total_steps=max(config.epochs, config.warmup_epochs + 1))
        elif config.lr_schedule == "step":
            schedule = StepDecay(optimizer, step_size=config.step_size,
                                 gamma=config.step_gamma)
        else:
            schedule = ConstantLR(optimizer)
        # The breakdown dict is assembled inside training_loss either way,
        # so requesting it costs nothing — but only bother when someone
        # (callbacks or telemetry) will consume it.
        want_breakdown = ((bool(self.callbacks) or get_telemetry() is not None)
                          and self._supports_breakdown())
        loader = PrefetchLoader(
            self.split.train, self.dataset.schema, config.batch_size,
            seed=config.seed, negatives=self._train_negatives(),
            dataset=self.dataset)
        history = History()
        best_state = None
        epochs_since_best = 0
        self._dispatch("on_fit_start")
        with span("train.fit", model=type(self.model).__name__,
                  epochs=config.epochs, batch_size=config.batch_size):
            for epoch in range(config.epochs):
                with span("train.epoch", epoch=epoch) as epoch_span:
                    self._dispatch("on_epoch_start", epoch)
                    train_start = time.perf_counter()
                    schedule.step()
                    self.model.train()
                    with span("train.train_pass", epoch=epoch):
                        losses = self._train_epoch(epoch, loader, optimizer,
                                                   want_breakdown)
                    eval_start = time.perf_counter()
                    self.model.eval()
                    with span("train.eval_pass", epoch=epoch):
                        metrics = evaluate_ranking(
                            self.model, self.split.valid, self.valid_candidates,
                            self.dataset.schema,
                            precollated=self._validation_batches())
                    now = time.perf_counter()
                    train_seconds = eval_start - train_start
                    eval_seconds = now - eval_start
                    record = EpochRecord(
                        epoch=epoch,
                        train_loss=float(np.mean(losses)) if losses else float("nan"),
                        valid_metrics=dict(metrics),
                        seconds=now - train_start,
                        learning_rate=optimizer.lr,
                        train_seconds=train_seconds,
                        eval_seconds=eval_seconds,
                    )
                    history.append(record)
                    self._dispatch("on_epoch_end", record)
                    epoch_span.set(train_loss=record.train_loss,
                                   monitored=metrics.get(config.monitor, 0.0))
                    telemetry = get_telemetry()
                    if telemetry is not None:
                        telemetry.emit(
                            "epoch", epoch=epoch, train_loss=record.train_loss,
                            train_seconds=train_seconds, eval_seconds=eval_seconds,
                            learning_rate=optimizer.lr,
                            monitored=metrics.get(config.monitor, 0.0),
                            metrics=dict(metrics))
                    if verbose:
                        logger.info(
                            "[epoch %02d] loss=%.4f %s (train %.1fs, eval %.1fs)",
                            epoch, record.train_loss, metrics,
                            train_seconds, eval_seconds)
                    monitored = metrics.get(config.monitor, 0.0)
                    if monitored > history.best_metric:
                        history.best_metric = monitored
                        history.best_epoch = epoch
                        best_state = self.model.state_dict()
                        if config.checkpoint_path is not None:
                            from repro.nn.serialization import save_checkpoint
                            save_checkpoint(self.model, config.checkpoint_path,
                                            extra={"epoch": epoch, config.monitor: monitored})
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= config.patience:
                            history.stopped_early = True
                            break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        self._dispatch("on_fit_end", history)
        if config.checkpoint_path is not None:
            self._write_manifest(history)
        return history

    def _write_manifest(self, history: History) -> None:
        """Run manifest (config, seed, git SHA, final metrics) next to the
        checkpoint — written best-effort; training never fails on it."""
        from pathlib import Path

        from repro.obs import write_run_manifest

        checkpoint = Path(self.config.checkpoint_path)
        if checkpoint.suffix != ".npz":
            checkpoint = checkpoint.with_suffix(".npz")
        best = (history.records[history.best_epoch].valid_metrics
                if 0 <= history.best_epoch < len(history.records) else {})
        try:
            write_run_manifest(
                checkpoint.with_name(checkpoint.name + ".manifest.json"),
                config=asdict(self.config),
                seed=self.config.seed,
                metrics={"best_epoch": history.best_epoch,
                         "best_metric": history.best_metric,
                         "monitor": self.config.monitor,
                         "valid": best},
                extra={"model": type(self.model).__name__,
                       "epochs_run": history.num_epochs,
                       "stopped_early": history.stopped_early,
                       "train_seconds": history.total_train_seconds(),
                       "eval_seconds": history.total_eval_seconds()},
            )
        except OSError:
            get_logger("repro.train").warning(
                "could not write run manifest next to %s", checkpoint)
