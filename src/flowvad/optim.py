"""Adam with cosine-annealed learning rate."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


def cosine_schedule(base_lr: float, total_steps: int):
    """Return step -> lr following half-cosine decay from base_lr to 0."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")

    def lr_at(step: int) -> float:
        t = min(max(step, 0), total_steps) / total_steps
        return 0.5 * base_lr * (1.0 + math.cos(math.pi * t))

    return lr_at


class Adam:
    """Standard Adam; the learning rate is a schedule, step -> lr."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: Callable[[int], float],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = [p for p in params if p.requires_grad]
        self._lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        lr = self._lr(self.step_count)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
