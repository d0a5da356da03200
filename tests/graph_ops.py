"""Autodiff ops that only the tests use.

The flow stack is one node with a hand-written backward, so nothing in
`flowvad` needs a general broadcast, matrix product, ReLU, exp, log, tanh,
negation or max node, and the convs apply their leaky ReLU themselves. The
tests still do: the generic-op oracle for the flow stack in
`test_flow_layers.py`, the op registry of the acceptance gradient check, the
plain-conv-then-activation reference of `test_conv.py`, and
`test_tensor_ops.py`. Each op records one node through
`Tensor._record`, like the ops in `flowvad.tensor`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from flowvad.errors import NumericError, ShapeError
from flowvad.tensor import Tensor, _check_finite, _unbroadcast

__all__ = ["amax", "broadcast_to", "exp", "leaky_relu", "log", "matmul", "neg", "relu", "tanh"]


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


def leaky_relu(t: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x; as max(x, slope * x) for 0 <= slope <= 1."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
    scaled = slope * t.data
    out = Tensor(np.maximum(t.data, scaled, out=scaled))

    def backward():
        mask = t.data > 0.0
        t._accumulate(np.where(mask, out.grad, slope * out.grad))

    return out._record((t,), backward)


def neg(t: Tensor) -> Tensor:
    out = Tensor(-t.data)

    def backward():
        t._accumulate(-out.grad)

    return out._record((t,), backward)


def exp(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(t.data)
    _check_finite(out_data, "exp")
    out = Tensor(out_data)

    def backward():
        t._accumulate(out_data * out.grad)

    return out._record((t,), backward)


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise NumericError("log requires strictly positive input")
    out = Tensor(np.log(t.data))

    def backward():
        t._accumulate(out.grad / t.data)

    return out._record((t,), backward)


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)
    out = Tensor(out_data)

    def backward():
        t._accumulate((1.0 - out_data**2) * out.grad)

    return out._record((t,), backward)


def amax(t: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Max-reduce; on ties the gradient goes to the lowest flat index."""
    if axis is None:
        flat_idx = int(np.argmax(t.data))
        out_data = t.data.reshape(-1)[flat_idx]
        out = Tensor(out_data if keepdims is False else np.full((1,) * t.ndim, out_data))

        def backward():
            g = np.zeros_like(t.data)
            g.reshape(-1)[flat_idx] = np.sum(out.grad)
            t._accumulate(g)

        return out._record((t,), backward)

    idx = np.argmax(t.data, axis=axis)
    out = Tensor(np.max(t.data, axis=axis, keepdims=keepdims))

    def backward():
        g = np.zeros_like(t.data)
        go = out.grad if keepdims else np.expand_dims(out.grad, axis)
        np.put_along_axis(g, np.expand_dims(idx, axis), go, axis=axis)
        t._accumulate(g)

    return out._record((t,), backward)
