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


# Values of a parameter that one in-place Adam pass updates at a time:
# 128 KiB, so a block's six arrays stay within a core's L2 cache. On a
# 2-vCPU Xeon (2 MiB L2 a core) 2**16 took the flow stack's 77,248-value
# update from about 0.5 ms to 0.8 ms, and the autoencoder's is the same.
_BLOCK = 2**14


class Adam:
    """Standard Adam; the learning rate is a schedule, step -> lr.

    The parameters are a whole model's trainable arrays (the flow stack's
    is one flat vector), and the model trains whole, so each has a gradient
    after every backward. A step updates the moments and every parameter in
    place, over each parameter's flat view in blocks of
    ``_BLOCK`` values, through two scratch buffers of one block each, in the
    operation order of ``lr * (m / bias1) / (sqrt(v / bias2) + eps)``.
    Every operation is elementwise, so the blocks give the same bits as the
    textbook expression over the whole parameter, without its temporaries.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: Callable[[int], float],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self._lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        # flat, like the views of each parameter the update runs over
        self._m = [np.zeros(p.size) for p in self.params]
        self._v = [np.zeros(p.size) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        lr = self._lr(self.step_count)
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        update_buf, denom_buf = np.empty(_BLOCK), np.empty(_BLOCK)
        for p, m_all, v_all in zip(self.params, self._m, self._v):
            # the update writes through this view: copy=False raises rather than copy
            data_all = p.data.reshape(-1, copy=False)
            g_all = p.grad.reshape(-1)
            for start in range(0, p.size, _BLOCK):
                block = slice(start, start + _BLOCK)
                data, g, m, v = data_all[block], g_all[block], m_all[block], v_all[block]
                update, denom = update_buf[: g.size], denom_buf[: g.size]
                m *= b1
                m += np.multiply(1.0 - b1, g, out=update)
                v *= b2
                np.multiply(1.0 - b2, g, out=update)
                v += np.multiply(update, g, out=update)
                np.divide(m, bias1, out=update)
                update *= lr
                np.divide(v, bias2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                update /= denom
                data -= update
