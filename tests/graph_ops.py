"""Autodiff ops that only the tests use.

The package's flow layers carry hand-written backwards, so nothing in
`flowvad` needs a general broadcast, matrix product or ReLU node. The tests
still do: the generic-op oracle for the flow step in `test_flow_layers.py`,
the op registry of the acceptance gradient check, and `test_tensor_ops.py`.
Each op records one node through `Tensor._record`, like the ops in
`flowvad.tensor`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from flowvad.errors import ShapeError
from flowvad.tensor import Tensor, _unbroadcast

__all__ = ["broadcast_to", "matmul", "relu"]


def broadcast_to(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(t.data, shape).copy()
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {t.shape} to {shape}") from exc
    out = Tensor(data)

    def backward():
        t._accumulate(_unbroadcast(out.grad, t.shape))

    return out._record((t,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward():
        if a.requires_grad:
            ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
            b._accumulate(_unbroadcast(gb, b.shape))

    return out._record((a, b), backward)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    out = Tensor(np.where(mask, t.data, 0.0))

    def backward():
        t._accumulate(np.where(mask, out.grad, 0.0))

    return out._record((t,), backward)
