"""AdamW with decoupled weight decay and a cosine schedule with warm start."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class DivergenceError(ArithmeticError):
    """Training produced a non-finite gradient or loss."""


def cosine_warmup_lr(epoch: int, total_epochs: int, warmup_epochs: int, base_lr: float) -> float:
    """Learning rate for a 1-indexed epoch.

    Linear ramp base*epoch/warmup during warmup, exactly base at epoch
    max(warmup, 1), then cosine decay toward 0 that stops one epoch short of
    it, so every epoch, a 1-epoch run's included, trains with lr > 0.
    """
    if not 1 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [1, {total_epochs}]")
    if epoch < warmup_epochs:
        return base_lr * epoch / warmup_epochs
    peak = max(warmup_epochs, 1)
    progress = (epoch - peak) / (total_epochs - peak + 1)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


class AdamW:
    """Decoupled weight decay applied to every parameter before the moment
    update; parameters with absent gradients take the decay step only."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float = 1e-3,
                 weight_decay: float = 0.01, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.base_lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, lr: float | None = None) -> None:
        lr = self.base_lr if lr is None else lr
        for name, p in self.params:
            grad = p.grad
            if grad is not None and not np.all(np.isfinite(grad)):
                raise DivergenceError(f"non-finite gradient in {name!r}; step aborted")
        self.step_count += 1
        t = self.step_count
        for name, p in self.params:
            p.data *= 1.0 - lr * self.weight_decay
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()
