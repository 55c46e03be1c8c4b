"""Optimizers: SGD (momentum), Adam, AdamW and gradient clipping."""

from __future__ import annotations

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "Adagrad", "RMSprop",
           "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in parameters:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list and a mutable learning rate."""

    def __init__(self, parameters, lr: float):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def _freeze_rows(self, param: Parameter) -> None:
        """Re-zero rows flagged as frozen (e.g. an Embedding's padding row)."""
        rows = getattr(param, "frozen_rows", None)
        if rows is not None:
            param.data[rows] = 0.0


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update
            self._freeze_rows(p)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction; L2 added to the gradient."""

    def __init__(self, parameters, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self._freeze_rows(p)


class Adagrad(Optimizer):
    """Adagrad (Duchi et al., 2011) — the optimizer of the original GRU4Rec.

    Per-coordinate learning rates decay with the accumulated squared
    gradient; well-suited to sparse embedding updates.
    """

    def __init__(self, parameters, lr: float = 0.01, eps: float = 1e-10,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.eps = eps
        self.weight_decay = weight_decay
        self._accumulator = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, acc in zip(self.parameters, self._accumulator):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            acc += grad * grad
            p.data -= self.lr * grad / (np.sqrt(acc) + self.eps)
            self._freeze_rows(p)


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton, 2012): exponentially decayed squared-grad
    normalization, optionally with momentum."""

    def __init__(self, parameters, lr: float = 0.001, alpha: float = 0.99,
                 eps: float = 1e-8, momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self.eps = eps
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._square_avg = [np.zeros_like(p.data) for p in self.parameters]
        self._buffer = [np.zeros_like(p.data) for p in self.parameters] \
            if momentum else None

    def step(self) -> None:
        for i, (p, sq) in enumerate(zip(self.parameters, self._square_avg)):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            sq *= self.alpha
            sq += (1.0 - self.alpha) * grad * grad
            update = grad / (np.sqrt(sq) + self.eps)
            if self.momentum:
                buf = self._buffer[i]
                buf *= self.momentum
                buf += update
                update = buf
            p.data -= self.lr * update
            self._freeze_rows(p)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def step(self) -> None:
        if self.weight_decay:
            for p in self.parameters:
                if p.grad is not None:
                    p.data -= self.lr * self.weight_decay * p.data
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = decay
