"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient. Every operation
that participates in differentiation records a backward closure and its
parent tensors on the output; calling :meth:`Tensor.backward` on a scalar
loss walks the recorded graph once in reverse topological order and
accumulates ``d loss / d leaf`` into each ``requires_grad`` leaf.

Design constraints, fixed on purpose:

* float64 everywhere; no mixed precision.
* elementwise ops broadcast only over the leading batch axis (or against
  scalars); an operand of any other shape must be expanded to the full shape
  first, so every gradient path is explicit. The one exception is the
  per-channel bias of :func:`conv3d` and :func:`conv_transpose3d`, whose
  gradient the conv's own backward computes.
* slicing copies; no view aliasing survives into the backward pass.
* max-reduction ties send the whole gradient to the lowest flat index.

The flow layers of :mod:`flowvad.flow` (actnorm, the LU 1x1 mix and the
coupling conditioner) each record one node through ``_record`` with a
hand-written NumPy backward that honours ``requires_grad`` on every parent.
Inside a :func:`no_grad` block no node records parents or a backward
closure, so inference builds no graph.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

__all__ = [
    "Tensor",
    "concat",
    "conv3d",
    "conv_transpose3d",
    "assert_finite",
    "no_grad",
]

_GRAD_ENABLED = contextvars.ContextVar("flowvad_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results carry no parents, no
    backward closure and ``requires_grad=False``. Restored on exit, also
    when the block raises."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 array with reverse-mode gradient support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_cleared")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._cleared = False

    # ---------------------------------------------------------------- basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------- the graph

    def _record(self, parents: Sequence["Tensor"], backward) -> "Tensor":
        """Attach graph metadata to ``self`` if any parent wants gradients
        and gradients are enabled (see :func:`no_grad`)."""
        if not _GRAD_ENABLED.get():
            return self
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            self.requires_grad = True
            self._parents = tracked
            self._backward = backward
        return self

    def _accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar loss; clears the recorded graph after.

        Every node is visited exactly once, parents after children, so
        gradients along diamond-shaped paths accumulate by addition.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._cleared:
            raise RuntimeError("backward called twice: the recorded graph was cleared")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
        for node in order:
            node._backward = None
            node._parents = ()
            node._cleared = True

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other):
        return _binary(self, other, np.add, _add_back)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, _sub_back)

    def __rsub__(self, other):
        return _wrap(other).__sub__(self)

    def __mul__(self, other):
        return _binary(self, other, np.multiply, _mul_back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, _checked_divide, _div_back)

    def __rtruediv__(self, other):
        return _wrap(other).__truediv__(self)

    def __neg__(self):
        out = Tensor(-self.data)

        def backward():
            self._accumulate(-out.grad)

        return out._record((self,), backward)

    def __pow__(self, exponent):
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

        return out._record((self,), backward)

    # ---------------------------------------------------------- nonlinearity

    def exp(self) -> "Tensor":
        with np.errstate(over="ignore"):
            out_data = np.exp(self.data)
        _check_finite(out_data, "exp")
        out = Tensor(out_data)

        def backward():
            self._accumulate(out_data * out.grad)

        return out._record((self,), backward)

    def log(self) -> "Tensor":
        if np.any(self.data <= 0.0):
            raise NumericError("log requires strictly positive input")
        out = Tensor(np.log(self.data))

        def backward():
            self._accumulate(out.grad / self.data)

        return out._record((self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        out = Tensor(out_data)

        def backward():
            self._accumulate((1.0 - out_data**2) * out.grad)

        return out._record((self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = expit(self.data)
        out = Tensor(out_data)

        def backward():
            self._accumulate(out_data * (1.0 - out_data) * out.grad)

        return out._record((self,), backward)

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        """x where x > 0, else slope * x; as max(x, slope * x) for 0 <= slope <= 1."""
        if not 0.0 <= slope <= 1.0:
            raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
        scaled = slope * self.data
        out = Tensor(np.maximum(self.data, scaled, out=scaled))

        def backward():
            mask = self.data > 0.0
            self._accumulate(np.where(mask, out.grad, slope * out.grad))

        return out._record((self,), backward)

    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data))
        sign = np.sign(self.data)

        def backward():
            self._accumulate(sign * out.grad)

        return out._record((self,), backward)

    def clamp_min(self, floor: float) -> "Tensor":
        mask = self.data > floor
        out = Tensor(np.where(mask, self.data, floor))

        def backward():
            self._accumulate(np.where(mask, out.grad, 0.0))

        return out._record((self,), backward)

    # ------------------------------------------------------------ reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims))

        def backward():
            self._accumulate(_spread(out.grad, self.shape, axis, keepdims))

        return out._record((self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else _axis_count(self.shape, axis)
        out = Tensor(self.data.mean(axis=axis, keepdims=keepdims))

        def backward():
            self._accumulate(_spread(out.grad, self.shape, axis, keepdims) / count)

        return out._record((self,), backward)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Max-reduce; on ties the gradient goes to the lowest flat index."""
        if axis is None:
            flat_idx = int(np.argmax(self.data))
            out_data = self.data.reshape(-1)[flat_idx]
            out = Tensor(out_data if keepdims is False else np.full((1,) * self.ndim, out_data))

            def backward():
                g = np.zeros_like(self.data)
                g.reshape(-1)[flat_idx] = np.sum(out.grad)
                self._accumulate(g)

            return out._record((self,), backward)

        idx = np.argmax(self.data, axis=axis)
        out = Tensor(np.max(self.data, axis=axis, keepdims=keepdims))

        def backward():
            g = np.zeros_like(self.data)
            go = out.grad if keepdims else np.expand_dims(out.grad, axis)
            np.put_along_axis(g, np.expand_dims(idx, axis), go, axis=axis)
            self._accumulate(g)

        return out._record((self,), backward)

    # --------------------------------------------------------------- reshape

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        # copy so the output never aliases this tensor's buffer
        out = Tensor(self.data.reshape(shape).copy())

        def backward():
            self._accumulate(out.grad.reshape(self.shape))

        return out._record((self,), backward)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        out = Tensor(self.data.transpose(axes).copy())
        inverse = tuple(np.argsort(axes))

        def backward():
            self._accumulate(out.grad.transpose(inverse))

        return out._record((self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        _check_basic_index(idx)
        out = Tensor(self.data[idx].copy())

        def backward():
            g = np.zeros_like(self.data)
            g[idx] = out.grad
            self._accumulate(g)

        return out._record((self,), backward)


# -------------------------------------------------------------------- helpers


def _scalar_err(t: Tensor):
    raise ShapeError(f"item() requires a single-element tensor, got shape {t.shape}")


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


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

    return out._record((a, b), backward)


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


def _check_basic_index(idx) -> None:
    items = idx if isinstance(idx, tuple) else (idx,)
    for it in items:
        if not (isinstance(it, (int, slice, np.integer)) or it is Ellipsis or it is None):
            raise TypeError(
                "only basic indexing (ints, slices, Ellipsis) is supported; "
                f"got {type(it).__name__}"
            )


# --------------------------------------------------------------- structural


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

    return out._record(ts, backward)


# ------------------------------------------------------------ 3d convolution


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ShapeError(f"expected 3 values for a (time, height, width) triple, got {v!r}")
    return t


def _conv_out_dims(dims, k, s, p) -> tuple[int, int, int]:
    out = []
    for d, ki, si, pi in zip(dims, k, s, p):
        span = d + 2 * pi - ki
        if span < 0:
            raise ShapeError(
                f"kernel {k} with padding {p} does not fit input dims {tuple(dims)}"
            )
        out.append(span // si + 1)
    return tuple(out)


def _im2col(xp: np.ndarray, k, s, out_dims) -> np.ndarray:
    """Gather conv patches into (batch, C*kt*kh*kw, positions). Copies."""
    n, c = xp.shape[:2]
    kt, kh, kw = k
    st, sh, sw = s
    do, ho, wo = out_dims
    sn, sc, sd, sh_, sw_ = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kt, kh, kw, do, ho, wo),
        strides=(sn, sc, sd, sh_, sw_, sd * st, sh_ * sh, sw_ * sw),
        writeable=False,
    )
    return view.reshape(n, c * kt * kh * kw, do * ho * wo)


def _tap_sum(taps: np.ndarray, s, p, out: np.ndarray) -> np.ndarray:
    """Sum per-tap products onto the cropped output grid of a transposed conv.

    ``taps`` is (n, c, kt, kh, kw, *in_dims); tap (a, b, e) of input position
    (i, j, l) lands on padded position (a + s_t*i, b + s_h*j, e + s_w*l), and
    ``out`` (n, c, *out_dims), overwritten and returned, is the padded grid
    with ``p`` cut from each side. This is the adjoint of :func:`_im2col`.
    See :func:`conv_transpose3d` for the method.
    """
    n, c, *k = taps.shape[:5]
    in_dims = taps.shape[5:]
    out_dims = out.shape[2:]
    for phase in itertools.product(*(range(si) for si in s)):
        counts = []
        axis_taps = []
        for r, si, pi, ki, di, do in zip(phase, s, p, k, in_dims, out_dims):
            count = len(range(r, do, si))
            hits = []
            for a in range(ki):
                shift, rem = divmod(a - r - pi, si)
                lo, hi = max(0, shift), min(count, di + shift)
                if rem == 0 and lo < hi:
                    hits.append((a, slice(lo, hi), slice(lo - shift, hi - shift)))
            counts.append(count)
            axis_taps.append(hits)
        acc = np.zeros((n, c, *counts))
        for (a, ot, it), (b, oh, ih), (e, ow, iw) in itertools.product(*axis_taps):
            acc[:, :, ot, oh, ow] += taps[:, :, a, b, e, it, ih, iw]
        out[:, :, phase[0] :: s[0], phase[1] :: s[1], phase[2] :: s[2]] = acc
    return out


def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0), bias=None) -> Tensor:
    """3-D convolution (cross-correlation) over (batch, channel, time, h, w).

    ``w`` has shape (out_channels, in_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,). Output spatial dims follow
    floor((d + 2p - k) / s) + 1 per axis.
    """
    x, w = _wrap(x), _wrap(w)
    s, p = _triple(stride), _triple(padding)
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError(f"conv3d expects 5-d input and weight, got {x.shape} and {w.shape}")
    n, cin, *dims = x.shape
    cout, cin_w, *k = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv3d channel mismatch: input {x.shape} vs weight {w.shape}")
    k = tuple(k)
    out_dims = _conv_out_dims(dims, k, s, p)
    xp = np.pad(x.data, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1]), (p[2], p[2])))
    cols = _im2col(xp, k, s, out_dims)
    w2 = w.data.reshape(cout, -1)
    y = np.matmul(w2, cols).reshape(n, cout, *out_dims)
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1, 1)
    out = Tensor(y)
    positions = out_dims[0] * out_dims[1] * out_dims[2]

    def backward():
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)))
        gy = out.grad.reshape(n, cout, positions)
        if w.requires_grad:
            gw = np.matmul(gy, cols.transpose(0, 2, 1)).sum(axis=0)
            w._accumulate(gw.reshape(w.shape))
        if x.requires_grad:
            gcols = np.matmul(w2.T, gy).reshape(n, cin, *k, *out_dims)
            x._accumulate(_tap_sum(gcols, s, p, np.empty(x.shape)))

    return out._record((x, w) if bias is None else (x, w, bias), backward)


def conv_transpose3d(
    x: Tensor,
    w: Tensor,
    stride=(1, 1, 1),
    padding=(0, 0, 0),
    output_padding=(0, 0, 0),
    bias=None,
) -> Tensor:
    """Transposed 3-D convolution, the adjoint of :func:`conv3d`.

    ``w`` has shape (in_channels, out_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,); with matching stride and padding,
    <conv3d(x, w), y> == <x, conv_transpose3d(y, w)>. Output dims follow
    (d - 1) * s - 2p + k + output_padding per axis.

    A matmul per sample gives every tap's product, (cout, kt, kh, kw,
    *in_dims), in one buffer reused across the batch, so the products of the
    whole batch are never held at once. Tap (a, b, e) of input position i
    lands on padded position a + s*i. The output splits into s_t*s_h*s_w
    phases, output index = r + s*m per axis (sub-pixel convolution: Shi et
    al. 2016, arXiv:1609.05158). Only taps with a = r + p (mod s) reach
    phase r, each as a slice shifted by (a - r - p) / s, so each phase is
    summed in its own dense accumulator and written into the output once by
    strided assignment: no scatter-add onto a padded buffer and no crop.
    Each phase sums its taps from zero in (a, b, e) order, the order of a
    direct scatter-add of all taps, so every output value is bitwise what
    that scatter gives.
    """
    x, w = _wrap(x), _wrap(w)
    s, p, op = _triple(stride), _triple(padding), _triple(output_padding)
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError(
            f"conv_transpose3d expects 5-d input and weight, got {x.shape} and {w.shape}"
        )
    n, cin, *dims = x.shape
    cin_w, cout, *k = w.shape
    if cin != cin_w:
        raise ShapeError(
            f"conv_transpose3d channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    k = tuple(k)
    for oi, si in zip(op, s):
        if oi >= si:
            raise ShapeError(f"output_padding {op} must be < stride {s}")
    out_dims = tuple(
        (d - 1) * si - 2 * pi + ki + oi for d, si, pi, ki, oi in zip(dims, s, p, k, op)
    )
    if any(d <= 0 for d in out_dims):
        raise ShapeError(
            f"conv_transpose3d produces non-positive dims {out_dims} from input {x.shape}"
        )
    positions = dims[0] * dims[1] * dims[2]
    w2 = w.data.reshape(cin, -1)
    y = np.empty((n, cout, *out_dims))
    taps = np.empty((w2.shape[1], positions))
    for i in range(n):
        np.matmul(w2.T, x.data[i].reshape(cin, positions), out=taps)
        _tap_sum(taps.reshape(1, cout, *k, *dims), s, p, y[i : i + 1])
    if bias is not None:
        y += bias.data.reshape(1, cout, 1, 1, 1)
    out = Tensor(y)

    def backward():
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)))
        gpad = np.pad(out.grad, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1]), (p[2], p[2])))
        gcols = _im2col(gpad, k, s, dims)
        if x.requires_grad:
            gx = np.matmul(w2, gcols)
            x._accumulate(gx.reshape(x.shape))
        if w.requires_grad:
            gw = np.matmul(x.data.reshape(n, cin, positions), gcols.transpose(0, 2, 1)).sum(
                axis=0
            )
            w._accumulate(gw.reshape(w.shape))

    return out._record((x, w) if bias is None else (x, w, bias), backward)


def assert_finite(t, context: str = "tensor") -> None:
    """Raise :class:`NumericError` if any value is NaN or infinite."""
    data = t.data if isinstance(t, Tensor) else np.asarray(t)
    if not np.all(np.isfinite(data)):
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise NumericError(f"{context} contains {bad} non-finite values")
