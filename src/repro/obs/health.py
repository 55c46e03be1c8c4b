"""Training-health monitors: loss components, gradient norms, NaN watchdog.

Multi-loss SSL training (BPR/sampled-softmax + contrastive + disentangle
terms) fails in characteristic ways — one loss term collapsing to zero, a
layer's gradients exploding while the rest stay tame, a single NaN silently
poisoning Adam's moments.  The monitors here watch for exactly those modes,
wired into :class:`~repro.train.trainer.Trainer` through a lightweight
callback protocol::

    from repro.obs import GradientMonitor, LossComponentTracker, NaNWatchdog

    trainer = Trainer(model, split, config,
                      callbacks=[LossComponentTracker(), GradientMonitor(),
                                 NaNWatchdog()])

Every monitor keeps its own in-memory history, mirrors headline values into
a :class:`~repro.obs.metrics.MetricsRegistry`, and emits telemetry events
when a hub is installed — all three stay usable standalone.
"""

from __future__ import annotations

import numpy as np

from .events import get_telemetry
from .metrics import MetricsRegistry, get_registry
from .names import train_loss_component

__all__ = [
    "TrainerCallback",
    "LossComponentTracker",
    "GradientMonitor",
    "NaNWatchdog",
    "NonFiniteGradientError",
]


class TrainerCallback:
    """No-op base for training-loop observers.

    The trainer invokes the hooks in loop order; every hook receives the
    trainer itself so callbacks can reach the model, config and optimizer
    state.  Subclasses override what they need.
    """

    def on_fit_start(self, trainer) -> None:
        """Called once before the first epoch."""

    def on_epoch_start(self, trainer, epoch: int) -> None:
        """Called at the top of every epoch, before any batch."""

    def on_batch_start(self, trainer, epoch: int, step: int) -> None:
        """Called before a batch's forward pass (gradients still cleared)."""

    def on_batch_end(self, trainer, epoch: int, step: int, loss: float,
                     breakdown: dict) -> None:
        """Called after ``optimizer.step()`` with gradients still in place.

        ``breakdown`` maps loss-component names to post-weighting values —
        at minimum ``{"total": loss}``, and the full per-term split for
        models whose ``training_loss`` supports ``return_breakdown``.
        """

    def on_epoch_end(self, trainer, record) -> None:
        """Called with the finished :class:`~repro.train.history.EpochRecord`."""

    def on_fit_end(self, trainer, history) -> None:
        """Called once after early stopping / the final epoch."""


class NonFiniteGradientError(FloatingPointError):
    """A NaN/Inf reached a gradient (or the loss) during training.

    Attributes:
        parameter: offending parameter name, or None when the loss itself
            was non-finite.
        epoch / step: position in the training loop.
    """

    def __init__(self, message: str, parameter: str | None = None,
                 epoch: int = -1, step: int = -1):
        super().__init__(message)
        self.parameter = parameter
        self.epoch = epoch
        self.step = step


class NaNWatchdog(TrainerCallback):
    """Raises :class:`NonFiniteGradientError` the moment training goes bad.

    After every ``every``-th optimizer step the watchdog checks the loss and
    every parameter gradient for NaN/Inf and raises with the offending
    parameter's name — far cheaper to debug than a model that silently
    diverges three epochs later.
    """

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self._step = 0

    def on_batch_end(self, trainer, epoch: int, step: int, loss: float,
                     breakdown: dict) -> None:
        self._step += 1
        if self._step % self.every:
            return
        if not np.isfinite(loss):
            raise NonFiniteGradientError(
                f"non-finite training loss {loss!r} at epoch {epoch} "
                f"step {step}",
                parameter=None, epoch=epoch, step=step)
        for name, param in trainer.model.named_parameters():
            grad = param.grad
            if grad is not None and not np.all(np.isfinite(grad)):
                bad = "nan" if np.isnan(grad).any() else "inf"
                raise NonFiniteGradientError(
                    f"non-finite ({bad}) gradient in parameter {name!r} "
                    f"at epoch {epoch} step {step}",
                    parameter=name, epoch=epoch, step=step)


class LossComponentTracker(TrainerCallback):
    """Per-epoch means of every loss component (main / ssl / aug / disent).

    After each epoch :attr:`epochs` holds one ``{component: mean}`` dict;
    the latest means also land in the registry as ``train.loss.<component>``
    gauges and, when telemetry is installed, as one ``loss_components``
    event per epoch.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else get_registry()
        self.epochs: list[dict[str, float]] = []
        self._sums: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def on_epoch_start(self, trainer, epoch: int) -> None:
        self._sums.clear()
        self._counts.clear()

    def on_batch_end(self, trainer, epoch: int, step: int, loss: float,
                     breakdown: dict) -> None:
        for component, value in breakdown.items():
            self._sums[component] = self._sums.get(component, 0.0) + value
            self._counts[component] = self._counts.get(component, 0) + 1

    def on_epoch_end(self, trainer, record) -> None:
        means = {component: self._sums[component] / self._counts[component]
                 for component in self._sums}
        self.epochs.append(means)
        for component, value in means.items():
            self.registry.gauge(train_loss_component(component)).set(value)
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.emit("loss_components", epoch=record.epoch, means=means)

    def curve(self, component: str) -> list[float]:
        """Per-epoch means of one component (NaN where it was absent)."""
        return [epoch.get(component, float("nan")) for epoch in self.epochs]


class GradientMonitor(TrainerCallback):
    """Per-parameter gradient norms and update/parameter ratios.

    Every ``every``-th step the monitor snapshots parameters before the
    update, then records for each named parameter the gradient L2 norm and
    ``‖Δθ‖ / ‖θ‖`` — the classic health signal: ratios around 1e-3 are
    healthy, ~1e-7 means the layer is frozen, ~1e-1 means the learning rate
    is tearing it apart.  Headline aggregates land in the registry
    (``train.grad.global_norm``, ``train.grad.update_ratio.max``); full
    per-parameter histories stay on the monitor.
    """

    def __init__(self, every: int = 10, registry: MetricsRegistry | None = None):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.registry = registry if registry is not None else get_registry()
        self.grad_norms: dict[str, list[float]] = {}
        self.update_ratios: dict[str, list[float]] = {}
        self._step = 0
        self._before: dict[str, np.ndarray] | None = None

    def on_batch_start(self, trainer, epoch: int, step: int) -> None:
        if self._step % self.every == 0:
            self._before = {name: param.data.copy()
                            for name, param in trainer.model.named_parameters()}

    def on_batch_end(self, trainer, epoch: int, step: int, loss: float,
                     breakdown: dict) -> None:
        self._step += 1
        if self._before is None:
            return
        before, self._before = self._before, None
        squared_sum = 0.0
        worst_ratio = 0.0
        for name, param in trainer.model.named_parameters():
            grad = param.grad
            norm = float(np.sqrt((grad * grad).sum())) if grad is not None else 0.0
            squared_sum += norm * norm
            self.grad_norms.setdefault(name, []).append(norm)
            previous = before.get(name)
            if previous is None:
                continue
            param_norm = float(np.linalg.norm(previous))
            update_norm = float(np.linalg.norm(param.data - previous))
            # All-zero or freshly-initialized parameters make the denominator
            # 0, and a poisoned parameter makes it NaN/inf — either way the
            # ratio is meaningless, so report 0 rather than dividing.
            if param_norm > 0.0 and np.isfinite(param_norm) and np.isfinite(update_norm):
                ratio = update_norm / param_norm
            else:
                ratio = 0.0
            self.update_ratios.setdefault(name, []).append(ratio)
            if ratio > worst_ratio:
                worst_ratio = ratio
        global_norm = float(np.sqrt(squared_sum))
        self.registry.gauge("train.grad.global_norm").set(global_norm)
        self.registry.gauge("train.grad.update_ratio.max").set(worst_ratio)
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.emit("grad_health", epoch=epoch, step=step,
                           global_norm=global_norm,
                           max_update_ratio=worst_ratio)

    def last_ratios(self) -> dict[str, float]:
        """The most recent update/param ratio per parameter."""
        return {name: values[-1]
                for name, values in self.update_ratios.items() if values}
