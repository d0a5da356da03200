"""Autodiff ops that only the tests use.

The flow stack, the reconstruction loss and the autoencoder are each one
node with a hand-written backward, so nothing in `flowvad` needs generic
elementwise arithmetic, a general broadcast, reshape, transpose, per-axis
reduction, matrix product, ReLU, exp, log, tanh, negation, max, slicing,
sigmoid, concat or per-layer conv node. The tests still do: the autodiff
oracles for the flow stack in `test_flow_layers.py`, for the loss in
`test_losses.py` and for the autoencoder in `model_oracles.py`, the op
registry of the acceptance gradient check, the conv tests of
`test_conv.py`, and `test_tensor_ops.py`. Each op records one node, when
some input wants a gradient, through `_node`, the one place that applies
that rule before calling `Tensor._record`. The conv nodes wrap the
array kernels of `flowvad.tensor`; their backward undoes the leaky ReLU
from the activated output, sums the bias gradient and calls the backward
kernel, on a copy of the input for the transposed conv, whose kernel
writes the input gradient over its input.

Importing this module (`conftest.py` does) attaches the arithmetic
operators, basic slicing and the `abs`, `clamp_min`, `sum`, `reshape`,
`transpose` and `sigmoid` methods to `Tensor`, so the oracles write
`a * b` and `x[:, :, ::tau]`. Elementwise ops broadcast only over the
leading batch axis or against scalars; an operand of any other shape must
be expanded to the full shape first, so every gradient path is explicit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from flowvad import tensor
from flowvad.errors import NumericError, ShapeError
from flowvad.tensor import Tensor

__all__ = [
    "amax", "broadcast_to", "concat", "conv3d", "conv_transpose3d", "exp", "leaky_relu", "log",
    "matmul", "mean_axis", "neg", "relu", "tanh",
]


# ---------------------------------------------------------------- helpers


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _node(out: Tensor, parents: Sequence[Tensor], backward) -> Tensor:
    """Record ``out`` as a node over ``parents`` when any of them wants a
    gradient, naming only those that do; otherwise it stays a leaf. This is
    the ops' recording rule: ``Tensor._record`` records whenever called."""
    tracked = tuple(p for p in parents if p.requires_grad)
    return out._record(tracked, backward) if tracked else out


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


def _checked_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(a, b)
    _check_finite(out, "divide")
    return out


def _broadcast_ok(sa: tuple[int, ...], sb: tuple[int, ...]) -> bool:
    """Exact match, scalar, or broadcast across the leading batch axis only."""
    if sa == sb or len(sa) == 0 or len(sb) == 0:
        return True
    if len(sa) == len(sb) and sa[1:] == sb[1:] and (sa[0] == 1 or sb[0] == 1):
        return True
    if sa == sb[1:] or sb == sa[1:]:
        return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a: Tensor, other, np_op, back) -> Tensor:
    b = _wrap(other)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(
            f"elementwise op on incompatible shapes {a.shape} and {b.shape}; "
            "only batch-axis or scalar broadcasting is allowed; expand the "
            "operand to the full shape first"
        )
    out = Tensor(np_op(a.data, b.data))

    def backward():
        ga, gb = back(a.data, b.data, out.grad)
        if a.requires_grad:
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(gb, b.shape))

    return _node(out, (a, b), backward)


def _add_back(a, b, g):
    return g, g


def _sub_back(a, b, g):
    return g, -g


def _mul_back(a, b, g):
    return g * b, g * a


def _div_back(a, b, g):
    return g / b, -g * a / (b * b)


def _spread(grad: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(grad.reshape((1,) * len(shape)), shape).copy()
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % len(shape) for a in axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape).copy()


def _axis_count(shape: tuple[int, ...], axis) -> int:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = 1
    for ax in axes:
        n *= shape[ax]
    return n


# ------------------------------------------------ methods attached to Tensor


def _add(self, other):
    return _binary(self, other, np.add, _add_back)


def _sub(self, other):
    return _binary(self, other, np.subtract, _sub_back)


def _rsub(self, other):
    return _sub(_wrap(other), self)


def _mul(self, other):
    return _binary(self, other, np.multiply, _mul_back)


def _truediv(self, other):
    return _binary(self, other, _checked_divide, _div_back)


def _pow(self, exponent):
    if isinstance(exponent, Tensor):
        raise TypeError("tensor exponents are not supported; use a python number")
    c = float(exponent)
    base = self.data
    if c != int(c) and np.any(base < 0.0):
        raise NumericError(f"pow with fractional exponent {c} on negative base")
    out_data = base**c
    _check_finite(out_data, f"pow(exponent={c})")
    out = Tensor(out_data)

    def backward():
        self._accumulate(c * base ** (c - 1.0) * out.grad)

    return _node(out, (self,), backward)


def _abs(self) -> Tensor:
    out = Tensor(np.abs(self.data))
    sign = np.sign(self.data)

    def backward():
        self._accumulate(sign * out.grad)

    return _node(out, (self,), backward)


def _clamp_min(self, floor: float) -> Tensor:
    mask = self.data > floor
    out = Tensor(np.where(mask, self.data, floor))

    def backward():
        self._accumulate(np.where(mask, out.grad, 0.0))

    return _node(out, (self,), backward)


def _sum(self, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))

    def backward():
        self._accumulate(_spread(out.grad, self.shape, axis, keepdims))

    return _node(out, (self,), backward)


def _reshape(self, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    # copy so the output never aliases this tensor's buffer
    out = Tensor(self.data.reshape(shape).copy())

    def backward():
        self._accumulate(out.grad.reshape(self.shape))

    return _node(out, (self,), backward)


def _transpose(self, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(self.data.transpose(axes).copy())
    inverse = tuple(np.argsort(axes))

    def backward():
        self._accumulate(out.grad.transpose(inverse))

    return _node(out, (self,), backward)


def _check_basic_index(idx) -> None:
    items = idx if isinstance(idx, tuple) else (idx,)
    for it in items:
        if not (isinstance(it, (int, slice, np.integer)) or it is Ellipsis or it is None):
            raise TypeError(
                "only basic indexing (ints, slices, Ellipsis) is supported; "
                f"got {type(it).__name__}"
            )


def _getitem(self, idx) -> Tensor:
    """Basic slicing; the output is a copy, so no view aliasing survives
    into the backward pass."""
    _check_basic_index(idx)
    out = Tensor(self.data[idx].copy())

    def backward():
        g = np.zeros_like(self.data)
        g[idx] = out.grad
        self._accumulate(g)

    return _node(out, (self,), backward)


def _sigmoid(self) -> Tensor:
    # 1 / (1 + exp(-x)), as the autoencoder's last step computes it
    with np.errstate(over="ignore", under="ignore"):
        out_data = 1.0 / (1.0 + np.exp(-self.data))
    out = Tensor(out_data)

    def backward():
        self._accumulate(out_data * (1.0 - out_data) * out.grad)

    return _node(out, (self,), backward)


for _name, _op in {
    "__add__": _add,
    "__sub__": _sub,
    "__rsub__": _rsub,
    "__mul__": _mul,
    "__rmul__": _mul,
    "__truediv__": _truediv,
    "__pow__": _pow,
    "abs": _abs,
    "clamp_min": _clamp_min,
    "sum": _sum,
    "reshape": _reshape,
    "transpose": _transpose,
    "__getitem__": _getitem,
    "sigmoid": _sigmoid,
}.items():
    setattr(Tensor, _name, _op)


# ------------------------------------------------------------ functions


def mean_axis(t: Tensor, axis, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (an int or a tuple); ``Tensor.mean`` takes the
    whole array only."""
    count = _axis_count(t.shape, axis)
    out = Tensor(t.data.mean(axis=axis, keepdims=keepdims))

    def backward():
        t._accumulate(_spread(out.grad, t.shape, axis, keepdims) / count)

    return _node(out, (t,), backward)


def broadcast_to(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = np.broadcast_to(t.data, shape).copy()
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {t.shape} to {shape}") from exc
    out = Tensor(data)

    def backward():
        t._accumulate(_unbroadcast(out.grad, t.shape))

    return _node(out, (t,), backward)


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

    return _node(out, (a, b), backward)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0.0
    out = Tensor(np.where(mask, t.data, 0.0))

    def backward():
        t._accumulate(np.where(mask, out.grad, 0.0))

    return _node(out, (t,), backward)


def leaky_relu(t: Tensor, slope: float = 0.2) -> Tensor:
    """x where x > 0, else slope * x; as max(x, slope * x) for 0 <= slope <= 1."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
    scaled = slope * t.data
    out = Tensor(np.maximum(t.data, scaled, out=scaled))

    def backward():
        mask = t.data > 0.0
        t._accumulate(np.where(mask, out.grad, slope * out.grad))

    return _node(out, (t,), backward)


def neg(t: Tensor) -> Tensor:
    out = Tensor(-t.data)

    def backward():
        t._accumulate(-out.grad)

    return _node(out, (t,), backward)


def exp(t: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(t.data)
    _check_finite(out_data, "exp")
    out = Tensor(out_data)

    def backward():
        t._accumulate(out_data * out.grad)

    return _node(out, (t,), backward)


def log(t: Tensor) -> Tensor:
    if np.any(t.data <= 0.0):
        raise NumericError("log requires strictly positive input")
    out = Tensor(np.log(t.data))

    def backward():
        t._accumulate(out.grad / t.data)

    return _node(out, (t,), backward)


def tanh(t: Tensor) -> Tensor:
    out_data = np.tanh(t.data)
    out = Tensor(out_data)

    def backward():
        t._accumulate((1.0 - out_data**2) * out.grad)

    return _node(out, (t,), backward)


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

        return _node(out, (t,), backward)

    idx = np.argmax(t.data, axis=axis)
    out = Tensor(np.max(t.data, axis=axis, keepdims=keepdims))

    def backward():
        g = np.zeros_like(t.data)
        go = out.grad if keepdims else np.expand_dims(out.grad, axis)
        np.put_along_axis(g, np.expand_dims(idx, axis), go, axis=axis)
        t._accumulate(g)

    return _node(out, (t,), backward)


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    if not ts:
        raise ShapeError("concat requires at least one tensor")
    ndim = ts[0].ndim
    for t in ts[1:]:
        if t.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for ax in range(ndim):
            if ax != axis % ndim and t.shape[ax] != ts[0].shape[ax]:
                raise ShapeError(
                    f"concat shapes differ off-axis: {ts[0].shape} vs {t.shape} (axis={axis})"
                )
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    sizes = [t.shape[axis % ndim] for t in ts]

    def backward():
        start = 0
        for t, size in zip(ts, sizes):
            if t.requires_grad:
                sl = [slice(None)] * ndim
                sl[axis % ndim] = slice(start, start + size)
                t._accumulate(out.grad[tuple(sl)])
            start += size

    return _node(out, ts, backward)


def conv3d(x, w, stride=(1, 1, 1), padding=(0, 0, 0), bias=None, leaky=False) -> Tensor:
    """`flowvad.tensor.conv3d` as one node over ``x``, ``w`` and ``bias``."""
    x, w = _wrap(x), _wrap(w)
    y = tensor.conv3d(x.data, w.data, stride, padding, None if bias is None else bias.data, leaky)
    out = Tensor(y)

    def backward():
        if leaky:
            tensor._leaky_grad(out.grad, y)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)), owned=True)
        gw, gx = tensor.conv3d_backward(x.data, w.data, out.grad, stride, padding, x.requires_grad)
        if w.requires_grad:  # the kernel always gives the weight gradient
            w._accumulate(gw, owned=True)
        if gx is not None:
            x._accumulate(gx, owned=True)

    return _node(out, (x, w) if bias is None else (x, w, bias), backward)


def conv_transpose3d(
    x, w, stride=(1, 1, 1), padding=(0, 0, 0), output_padding=(0, 0, 0), bias=None, leaky=False
) -> Tensor:
    """`flowvad.tensor.conv_transpose3d` as one node over ``x``, ``w`` and
    ``bias``."""
    x, w = _wrap(x), _wrap(w)
    y = tensor.conv_transpose3d(
        x.data, w.data, stride, padding, output_padding, None if bias is None else bias.data, leaky
    )
    out = Tensor(y)

    def backward():
        if leaky:
            tensor._leaky_grad(out.grad, y)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)), owned=True)
        # the kernel writes the input gradient over its input: give it a copy
        gx = x.data.copy()
        gw = tensor.conv_transpose3d_backward(gx, w.data, out.grad, stride, padding)
        if x.requires_grad:
            x._accumulate(gx, owned=True)
        if w.requires_grad:  # the kernel always gives the weight gradient
            w._accumulate(gw, owned=True)

    return _node(out, (x, w) if bias is None else (x, w, bias), backward)
