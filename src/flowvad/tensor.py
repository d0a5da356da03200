"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient. Every operation
that participates in differentiation records a backward closure and its
parent tensors on the output; calling :meth:`Tensor.backward` on a scalar
loss walks the recorded graph once in reverse topological order and
accumulates ``d loss / d leaf`` into each ``requires_grad`` leaf.

The engine keeps only what the models record: the graph itself
(``_record``, ``_accumulate``, :meth:`Tensor.backward`), basic slicing,
``sigmoid``, the whole-array ``mean``, :func:`concat`, :func:`conv3d`,
:func:`conv_transpose3d` and :func:`no_grad`. There is no generic
elementwise arithmetic.

Design constraints, fixed on purpose:

* float64 everywhere; no mixed precision.
* slicing copies; no view aliasing survives into the backward pass.
* memory is bounded by recompute and by finishing arrays in place. Every
  convolution pass is built from two helpers. The column builder
  (:func:`_columns`) forms the im2col columns of one chunk of positions
  from a zero-padded halo of what the chunk reads: a group of samples at a
  time, or, for a sample whose columns exceed the budget, whole time slabs
  or runs of rows; conv3d's forward and weight gradient and the transposed
  conv's backward use it, and a conv node keeps its unpadded input, not its
  columns. The tap scatter (:func:`_scatter_taps`) forms per-tap products
  one sample and one bounded block of channels at a time and sums them onto
  the output grid; the transposed conv's forward and conv3d's input
  gradient use it. A conv adds its bias and applies its leaky ReLU to each
  block of its output as soon as the block is written, so the
  pre-activation is never a second array. :meth:`Tensor.backward` drops
  each node once it has passed its gradient on, so an intermediate's data
  is freed as soon as nothing else holds it, and a conv hands its freshly
  allocated gradients to its parents without a copy.

The flow stack of :mod:`flowvad.flow` records one node, its per-sample
negative log-likelihood, through ``_record``; its hand-written NumPy
backward honours ``requires_grad`` on every parent. The reconstruction loss
of :mod:`flowvad.losses` records one node, the total, whose only parent is
the reconstruction, with a hand-written NumPy backward too. Inside a
:func:`no_grad` block no node records parents or a backward closure, so
inference builds no graph.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "concat",
    "conv3d",
    "conv_transpose3d",
    "grad_enabled",
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


def grad_enabled() -> bool:
    """False inside a :func:`no_grad` block."""
    return _GRAD_ENABLED.get()


class Tensor:
    """Dense float64 array with reverse-mode gradient support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_cleared")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to this tensor's gradient. A first gradient is copied,
        so no view aliasing survives, unless ``owned`` says no other array
        shares ``g``'s memory; then it is kept as it is."""
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from a scalar loss, clearing the graph as it goes.

        Every node is visited exactly once, parents after children, so
        gradients along diamond-shaped paths accumulate by addition. Once a
        node's backward has run, its closure, parents and (unless it is a
        leaf) gradient are dropped, and so is the walk's own reference to
        it: a node nothing else holds is freed before the next one runs. A
        second call raises.
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
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
                node._backward = None
            if node._parents:
                node.grad = None
                node._parents = ()
            node._cleared = True

    # ---------------------------------------------------------- nonlinearity

    def sigmoid(self) -> "Tensor":
        # 1 / (1 + exp(-x)): exp overflows to inf only where the result is
        # below the smallest normal float, and underflows where it rounds to 1
        with np.errstate(over="ignore", under="ignore"):
            out_data = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(out_data)

        def backward():
            self._accumulate(out_data * (1.0 - out_data) * out.grad)

        return out._record((self,), backward)

    # ------------------------------------------------------------ reductions

    def mean(self) -> "Tensor":
        """Mean over every element."""
        out = Tensor(self.data.mean())

        def backward():
            self._accumulate(np.full(self.shape, out.grad / self.size), owned=True)

        return out._record((self,), backward)

    # --------------------------------------------------------------- slicing

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


# Most bytes of im2col columns, or of one sample's per-tap products, a conv
# holds at once. A sample whose columns exceed it forms them in chunks of
# positions; a larger channel's taps run alone.
_COLS_BUDGET = 16 * 2**20


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


def _tap_sum(taps: np.ndarray, s, p, out: np.ndarray) -> np.ndarray:
    """Sum per-tap products onto the cropped output grid of a transposed conv.

    ``taps`` is (n, c, kt, kh, kw, *in_dims); tap (a, b, e) of input position
    (i, j, l) lands on padded position (a + s_t*i, b + s_h*j, e + s_w*l), and
    ``out`` (n, c, *out_dims), overwritten and returned, is the padded grid
    with ``p`` cut from each side. This is the adjoint of :func:`_columns`.
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


def _batch_groups(n: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of ``range(n)`` whose im2col columns (or tap
    products), ``item_bytes`` per item, fit in ``_COLS_BUDGET`` bytes, each
    holding at least one item."""
    size = max(1, _COLS_BUDGET // item_bytes)
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _position_chunks(dims, row_bytes: int, run: int) -> list[tuple[slice, slice, slice]]:
    """(time, row, column) slices that tile a position grid of ``dims`` into
    chunks whose im2col columns, ``row_bytes`` per row of positions, fit in
    ``_COLS_BUDGET`` bytes: whole time slabs when one slab fits, else runs of
    ``run`` rows (which divides the slab height) of one slab, at least one
    run each."""
    t, h, w = dims
    if h * row_bytes <= _COLS_BUDGET:
        return [(g, slice(0, h), slice(0, w)) for g in _batch_groups(t, h * row_bytes)]
    return [
        (slice(a, a + 1), slice(g.start * run, g.stop * run), slice(0, w))
        for a in range(t)
        for g in _batch_groups(h // run, run * row_bytes)
    ]


def _gemm_rows(cin: int, cout: int, dims) -> int:
    """Rows of input positions per input-gradient GEMM of the transposed
    conv's backward: the most rows dividing the slab height of ``dims`` whose
    columns, ``cout``*k by rows*width, hold no more numbers than the weights
    of a ``cin``-to-``cin`` layer, and at least one row. The GEMMs' shapes
    depend on the layer alone, so the input gradient is bitwise the same
    however the positions are chunked. Long runs spread each GEMM's fixed
    cost (the call, and BLAS packing the weights) over many columns: a layer
    with few output channels, like the decoder's last, takes whole slabs,
    while a wide one keeps its runs within a few weights' worth of memory."""
    height, width = dims[1], dims[2]
    cap = max(cin * cin, cout * width)
    return max(r for r in range(1, height + 1) if height % r == 0 and r * width * cout <= cap)


def _check_slope(slope) -> None:
    # max(x, slope * x) is the leaky ReLU only for 0 <= slope <= 1
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky ReLU slope must be in [0, 1], got {slope}")


def _finish_block(blk: np.ndarray, bias, slope) -> None:
    """Add the per-channel ``bias`` (channel axis -4 of ``blk``), then apply
    leaky ReLU as max(x, slope * x), in place; the only temporary is
    ``slope * blk``, one block in size."""
    if bias is not None:
        blk += bias.reshape(-1, 1, 1, 1)
    if slope is not None:
        np.maximum(blk, slope * blk, out=blk)


def _leaky_grad(grad: np.ndarray, y: np.ndarray, slope, blocks) -> None:
    """Turn the gradient of a leaky ReLU's output ``y`` into that of its
    input, in place, one block at a time. For 0 <= slope <= 1, y > 0 exactly
    where the input is > 0, so the activated output is all the node keeps."""
    if slope is None:
        return
    for b in blocks:
        blk = grad[b]
        blk *= np.where(y[b] > 0.0, 1.0, slope)


def _columns(x: np.ndarray, k, s, p, chunk) -> np.ndarray:
    """The column builder: im2col columns, (n, c*kt*kh*kw, positions), of
    the output positions ``chunk`` (time, row, column slices) of a conv with
    kernel ``k``, stride ``s`` and padding ``p`` over ``x`` (n, c, *dims).
    Output position i reads input [s*i - p, s*i + k - p); the chunk copies
    that into a zero-padded halo of its own and im2cols it, so neither the
    padded input nor the columns of other positions are formed."""
    lo = [ch.start * si - pi for ch, si, pi in zip(chunk, s, p)]
    hi = [(ch.stop - 1) * si + ki - pi for ch, si, pi, ki in zip(chunk, s, p, k)]
    halo = np.zeros((*x.shape[:2], *(b - a for a, b in zip(lo, hi))))
    src = [slice(max(a, 0), max(a, 0, min(b, d))) for a, b, d in zip(lo, hi, x.shape[2:])]
    dst = [slice(r.start - a, r.stop - a) for r, a in zip(src, lo)]
    halo[(slice(None), slice(None), *dst)] = x[(slice(None), slice(None), *src)]
    # tap (a, b, e) of position (i, j, l) is halo[..., s_t*i + a, s_h*j + b, s_w*l + e]
    dims = tuple(ch.stop - ch.start for ch in chunk)
    st = halo.strides
    view = np.ndarray(
        (*halo.shape[:2], *k, *dims), halo.dtype, halo, 0,
        (*st, *(sd * si for sd, si in zip(st[2:], s))),
    )
    return view.reshape(halo.shape[0], -1, dims[0] * dims[1] * dims[2])


def _scatter_taps(x: np.ndarray, w: np.ndarray, s, p, out: np.ndarray, bias=None, slope=None):
    """The tap scatter: the transposed conv of ``x`` (n, cx, *dims) with
    ``w`` (cx, cy, kt, kh, kw), written over ``out`` (n, cy, *out_dims) and
    finished in place with the per-channel ``bias`` and leaky ReLU ``slope``;
    returns the (sample, channel block) index pairs it finished, in order.
    Per sample, the output channels run in blocks whose per-tap products fit
    in ``_COLS_BUDGET`` bytes: one GEMM puts a block's products in one buffer
    reused across blocks and samples, and :func:`_tap_sum` sums them onto
    the block's output."""
    n, cx = x.shape[:2]
    k, positions = w.shape[2:], x[0, 0].size
    by_channel = w.reshape(cx, w.shape[1], -1)
    channel_blocks = _batch_groups(w.shape[1], by_channel.shape[2] * positions * x.itemsize)
    blocks = [(i, cb) for i in range(n) for cb in channel_blocks]
    taps = np.empty((channel_blocks[0].stop * by_channel.shape[2], positions))
    for i, cb in blocks:
        wb = by_channel[:, cb].reshape(cx, -1)
        rows = taps[: wb.shape[1]]
        np.matmul(wb.T, x[i].reshape(cx, positions), out=rows)
        _tap_sum(rows.reshape(1, -1, *k, *x.shape[2:]), s, p, out[i : i + 1, cb])
        _finish_block(out[i, cb], None if bias is None else bias[cb], slope)
    return blocks


def conv3d(
    x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0), bias=None, slope=None
) -> Tensor:
    """3-D convolution (cross-correlation) over (batch, channel, time, h, w).

    ``w`` has shape (out_channels, in_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,). Output spatial dims follow
    floor((d + 2p - k) / s) + 1 per axis. With a ``slope`` in [0, 1] the
    output is the leaky ReLU, max(y, slope * y), of the biased convolution.

    The batch runs in groups whose im2col columns fit in ``_COLS_BUDGET``
    bytes; a sample whose columns do not fit runs alone, over whole time
    slabs or runs of rows of one slab (:func:`_position_chunks`). Each
    chunk's columns come from the column builder (:func:`_columns`), one
    matmul (one GEMM per sample) writes its output, and the bias and
    activation finish it in place. The node keeps the unpadded input.
    Backward adds each sample's weight-gradient term chunk by chunk from
    zeros (bitwise the batch ``.sum(axis=0)`` where a sample is one chunk,
    within rounding where it is split), and takes the input gradient from
    the tap scatter (:func:`_scatter_taps`), the exact adjoint.
    """
    x, w = _wrap(x), _wrap(w)
    s, p = _triple(stride), _triple(padding)
    _check_slope(slope)
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError(f"conv3d expects 5-d input and weight, got {x.shape} and {w.shape}")
    n, cin, *dims = x.shape
    cout, cin_w, *k = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv3d channel mismatch: input {x.shape} vs weight {w.shape}")
    k = tuple(k)
    out_dims = _conv_out_dims(dims, k, s, p)
    xd = x.data
    w2 = w.data.reshape(cout, -1)
    row_bytes = w2.shape[1] * out_dims[2] * xd.itemsize
    groups = _batch_groups(n, out_dims[0] * out_dims[1] * row_bytes)
    # one whole chunk when a sample's columns fit, else slabs or runs of rows
    chunks = _position_chunks(out_dims, row_bytes, 1)
    b = None if bias is None else bias.data

    y = np.empty((n, cout, *out_dims))
    for g in groups:
        for chunk in chunks:
            # a slab run or a row run of one slab, at full width: a view
            yc = y[(g, slice(None), *chunk)]
            cols = _columns(xd[g], k, s, p, chunk)
            np.matmul(w2, cols, out=yc.reshape(-1, cout, yc[0, 0].size))
            del cols  # before the next columns exist
            _finish_block(yc, b, slope)
    out = Tensor(y)

    def backward():
        _leaky_grad(out.grad, y, slope, groups)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)), owned=True)
        if w.requires_grad:
            gw = np.zeros(w2.shape)
            for g in groups:
                for chunk in chunks:
                    cols = _columns(xd[g], k, s, p, chunk)
                    gy = out.grad[(g, slice(None), *chunk)]
                    for j in range(len(cols)):
                        gw += gy[j].reshape(cout, -1) @ cols[j].T
                    del cols  # before the next columns exist
            w._accumulate(gw.reshape(w.shape), owned=True)
        if x.requires_grad:
            gx = np.empty(x.shape)
            _scatter_taps(out.grad, w.data, s, p, gx)
            x._accumulate(gx, owned=True)

    return out._record((x, w) if bias is None else (x, w, bias), backward)


def conv_transpose3d(
    x: Tensor,
    w: Tensor,
    stride=(1, 1, 1),
    padding=(0, 0, 0),
    output_padding=(0, 0, 0),
    bias=None,
    slope=None,
) -> Tensor:
    """Transposed 3-D convolution, the adjoint of :func:`conv3d`.

    ``w`` has shape (in_channels, out_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,); with matching stride and padding,
    <conv3d(x, w), y> == <x, conv_transpose3d(y, w)>. Output dims follow
    (d - 1) * s - 2p + k + output_padding per axis. With a ``slope`` in
    [0, 1] the output is the leaky ReLU of the biased transposed convolution.

    The forward is the tap scatter (:func:`_scatter_taps`), which forms the
    per-tap products one bounded block of output channels of one sample at a
    time. Tap (a, b, e) of input position i lands on padded position
    a + s*i. The output splits into s_t*s_h*s_w phases, output index
    = r + s*m per axis (sub-pixel convolution: Shi et al. 2016,
    arXiv:1609.05158). Only taps with a = r + p (mod s) reach phase r, each
    as a slice shifted by (a - r - p) / s, so each phase is summed in its own
    dense accumulator and written into the output once by strided
    assignment: no scatter-add onto a padded buffer and no crop. Each phase
    sums its taps from zero in (a, b, e) order, the order of a direct
    scatter-add of all taps, so every output value is bitwise what that
    scatter gives. The bias and activation finish each block in place as
    soon as its taps are summed.

    Backward is a strided :func:`conv3d` of the output gradient. It runs per
    sample over chunks of the input position grid whose im2col columns fit in
    ``_COLS_BUDGET`` bytes (whole time slabs, or runs of rows of one slab
    when a slab does not fit), each from the column builder
    (:func:`_columns`): a chunk writes its rows of the input gradient and
    adds its term of the weight gradient, so neither the padded output
    gradient nor a sample's full columns are ever held. The input gradient
    takes one GEMM per run of rows (:func:`_gemm_rows`) in every chunk, so
    it, the output and the bias gradient do not depend on the chunking. The
    weight gradient sums over positions chunk by chunk, so it moves with the
    chunking by rounding only. Both gradients are within 1e-12 relative of
    the whole-sample im2col backward.
    """
    x, w = _wrap(x), _wrap(w)
    s, p, op = _triple(stride), _triple(padding), _triple(output_padding)
    _check_slope(slope)
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
    xd = x.data
    w2 = w.data.reshape(cin, -1)
    y = np.empty((n, cout, *out_dims))
    blocks = _scatter_taps(xd, w.data, s, p, y, None if bias is None else bias.data, slope)
    out = Tensor(y)

    def backward():
        _leaky_grad(out.grad, y, slope, blocks)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3, 4)), owned=True)
        gw = np.zeros(w2.shape) if w.requires_grad else None
        gx = np.empty(x.shape) if x.requires_grad else None
        # the input gradient takes one GEMM per run of rows in any chunk, as
        # BLAS may round a column differently with the column count
        run, width = _gemm_rows(cin, cout, dims), dims[2]
        gx_runs = None if gx is None else gx.reshape(n, cin, dims[0], dims[1] // run, run * width)
        stack = (1, 2, 0, 3)  # (time, run, channel, position in run)
        for chunk in _position_chunks(dims, w2.shape[1] * width * xd.itemsize, run):
            runs = slice(chunk[1].start // run, chunk[1].stop // run)
            by_run = (chunk[0].stop - chunk[0].start, runs.stop - runs.start, run * width)
            for i in range(n):
                gcols = _columns(out.grad[i : i + 1], k, s, p, chunk)[0]
                if gx is not None:
                    np.matmul(
                        w2,
                        gcols.reshape(-1, *by_run).transpose(stack),
                        out=gx_runs[i, :, chunk[0], runs].transpose(stack),
                    )
                if gw is not None:
                    gw += xd[(i, slice(None), *chunk)].reshape(cin, -1) @ gcols.T
                del gcols  # before the next columns exist
        if gx is not None:
            x._accumulate(gx, owned=True)
        if gw is not None:
            w._accumulate(gw.reshape(w.shape), owned=True)

    return out._record((x, w) if bias is None else (x, w, bias), backward)
