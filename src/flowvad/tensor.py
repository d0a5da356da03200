"""Reverse-mode automatic differentiation over dense float64 numpy arrays,
and the convolution kernels the models differentiate by hand.

A ``Tensor`` wraps an ndarray plus an optional gradient; in the models it
is only a graph node, since both keep their parameters as plain arrays. A
model that is differentiated records one node on its output with
``_record``, which records whenever it is called: the caller applies the
one rule, a training call records and an inference call never does. The
node's backward closure is a hand-written NumPy pass that gives every
parameter its gradient array, asking no parameter whether it wants one;
the conv kernels always return the weight gradient. Calling
:meth:`Tensor.backward` on a scalar loss walks the recorded nodes once,
parents after children.

The engine keeps only that: ``_record``, ``_accumulate``,
:meth:`Tensor.backward` and the whole-array ``mean``. Three models record a
node, so a training step's graph is two nodes. The autoencoder of
:mod:`flowvad.autoencoder` records the reconstruction, with no parents,
unless the model is frozen; the reconstruction loss of
:mod:`flowvad.losses` records the total, whose only parent is the
reconstruction, exactly when the reconstruction requires a gradient; the
flow stack of :mod:`flowvad.flow` records its per-sample negative
log-likelihood, which ``mean`` reduces, unless called with
``record=False``, as its ``nll_of`` and ``init_actnorm`` do. So inference
builds no graph.

The convolutions are array kernels. :func:`conv3d` and
:func:`conv_transpose3d` run forward on ndarrays and record nothing;
:func:`conv3d_backward` and :func:`conv_transpose3d_backward` give one
call's gradients from the gradient of its output, and the models call them
from their own backward passes.

Design constraints, fixed on purpose:

* float64 everywhere; no mixed precision.
* ``_accumulate`` copies a first gradient unless the caller says it owns
  it, so no view aliasing survives into a gradient. Sharing a buffer is a
  backward pass's own, stated decision: the transposed conv's backward
  writes its input gradient over its input, and the flow stack's
  parameters and gradients are views into its flat vector and its flat
  gradient buffer, which a layer's backward writes in place.
* memory is bounded by recompute and by finishing arrays in place. Every
  convolution pass is built from two helpers. The column builder
  (:func:`_columns`) forms the im2col columns of one chunk of positions
  from a zero-padded halo of what the chunk reads: a group of samples at a
  time, or, for a sample whose columns exceed the budget, whole time slabs
  or runs of rows; conv3d's forward and weight gradient and the transposed
  conv's backward use it, and a backward rebuilds the columns from the
  unpadded input rather than keeping them. The tap scatter
  (:func:`_scatter_taps`) forms per-tap products one sample and one
  bounded block of channels at a time and sums them onto the output grid;
  the transposed conv's forward and conv3d's input gradient use it. A conv
  adds its bias and applies its leaky ReLU, whose slope ``LEAKY_SLOPE`` is
  defined here and nowhere else, to each block of its output as
  soon as the block is written, so the pre-activation is never a second
  array, and the activated output is all its backward needs.
  :meth:`Tensor.backward` drops each recorded node's closure and gradient
  once it has passed its gradient on, so what the closure held is freed
  before the next node runs.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import ShapeError

__all__ = [
    "LEAKY_SLOPE",
    "Tensor",
    "conv3d",
    "conv3d_backward",
    "conv_transpose3d",
    "conv_transpose3d_backward",
]


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

    # ------------------------------------------------------------- the graph

    def _record(self, parents: Sequence["Tensor"], backward) -> "Tensor":
        """Make ``self`` a node whose ``backward`` gives ``parents`` their
        gradients; whether to record is the caller's rule."""
        self.requires_grad = True
        self._parents = tuple(parents)
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
        recorded node's backward has run, its closure, parents and gradient
        are dropped, and so is the walk's own reference to it: a node
        nothing else holds is freed before the next one runs. A leaf keeps
        its gradient. A second call raises.
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
                node.grad = None
                node._parents = ()
            node._cleared = True

    # ------------------------------------------------------------ reductions

    def mean(self) -> "Tensor":
        """Mean over every element."""
        out = Tensor(self.data.mean())

        def backward():
            self._accumulate(np.full(self.shape, out.grad / self.size), owned=True)

        return out._record((self,), backward)


# ------------------------------------------------------------ 3d convolution


# The negative slope of every leaky ReLU a conv applies. The paper's
# architecture fixes it; it lies in [0, 1], so the leaky ReLU is
# max(x, LEAKY_SLOPE * x) and its output is > 0 exactly where its input is.
LEAKY_SLOPE = 0.2

# Most bytes of im2col columns, or of one sample's per-tap products, a conv
# holds at once. A sample whose columns exceed it forms them in chunks of
# positions; a larger channel's taps run alone.
_COLS_BUDGET = 16 * 2**20


def _triple(v) -> tuple[int, int, int]:
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


def _finish_block(blk: np.ndarray, bias, leaky: bool) -> None:
    """Add the per-channel ``bias`` (channel axis -4 of ``blk``), then, when
    ``leaky``, apply the leaky ReLU as max(x, LEAKY_SLOPE * x), in place;
    the only temporary is ``LEAKY_SLOPE * blk``, one block in size."""
    if bias is not None:
        blk += bias.reshape(-1, 1, 1, 1)
    if leaky:
        np.maximum(blk, LEAKY_SLOPE * blk, out=blk)


def _leaky_grad(grad: np.ndarray, y: np.ndarray) -> None:
    """Turn the gradient of a leaky ReLU's output ``y`` into that of its
    input, in place: scale it by ``LEAKY_SLOPE`` where y is not > 0, one
    sample (index of the first axis) at a time, so the only temporaries are
    a sample's boolean masks. As y > 0 exactly where the input is > 0, the
    activated output is all a backward needs."""
    for i in range(len(grad)):
        blk = grad[i : i + 1]
        np.multiply(blk, LEAKY_SLOPE, out=blk, where=~(y[i : i + 1] > 0.0))


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


def _scatter_taps(x: np.ndarray, w: np.ndarray, s, p, out: np.ndarray, bias=None, leaky=False):
    """The tap scatter: the transposed conv of ``x`` (n, cx, *dims) with
    ``w`` (cx, cy, kt, kh, kw), written over ``out`` (n, cy, *out_dims) and
    finished in place with the per-channel ``bias`` and, when ``leaky``, the
    leaky ReLU.
    Per sample, the output channels run in blocks whose per-tap products fit
    in ``_COLS_BUDGET`` bytes: one GEMM puts a block's products in one buffer
    reused across blocks and samples, and :func:`_tap_sum` sums them onto
    the block's output."""
    n, cx = x.shape[:2]
    k, positions = w.shape[2:], x[0, 0].size
    by_channel = w.reshape(cx, w.shape[1], -1)
    channel_blocks = _batch_groups(w.shape[1], by_channel.shape[2] * positions * x.itemsize)
    taps = np.empty((channel_blocks[0].stop * by_channel.shape[2], positions))
    for i in range(n):
        for cb in channel_blocks:
            wb = by_channel[:, cb].reshape(cx, -1)
            rows = taps[: wb.shape[1]]
            np.matmul(wb.T, x[i].reshape(cx, positions), out=rows)
            _tap_sum(rows.reshape(1, -1, *k, *x.shape[2:]), s, p, out[i : i + 1, cb])
            _finish_block(out[i, cb], None if bias is None else bias[cb], leaky)


def conv3d(
    x: np.ndarray, w: np.ndarray, stride=(1, 1, 1), padding=(0, 0, 0), bias=None, leaky=False
):
    """3-D convolution (cross-correlation) over (batch, channel, time, h, w).

    ``w`` has shape (out_channels, in_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,). Output spatial dims follow
    floor((d + 2p - k) / s) + 1 per axis. When ``leaky`` the output is the
    leaky ReLU, max(y, LEAKY_SLOPE * y), of the biased convolution.
    Returns a new array; records nothing.

    The batch runs in groups whose im2col columns fit in ``_COLS_BUDGET``
    bytes; a sample whose columns do not fit runs alone, over whole time
    slabs or runs of rows of one slab (:func:`_position_chunks`). Each
    chunk's columns come from the column builder (:func:`_columns`), one
    matmul (one GEMM per sample) writes its output, and the bias and
    activation finish it in place.
    """
    s, p = _triple(stride), _triple(padding)
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError(f"conv3d expects 5-d input and weight, got {x.shape} and {w.shape}")
    n, cin, *dims = x.shape
    cout, cin_w, *k = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv3d channel mismatch: input {x.shape} vs weight {w.shape}")
    k = tuple(k)
    out_dims = _conv_out_dims(dims, k, s, p)
    w2 = w.reshape(cout, -1)
    y = np.empty((n, cout, *out_dims))
    for g, chunk in _conv_chunks(n, w2.shape[1], out_dims):
        # a slab run or a row run of one slab, at full width: a view
        yc = y[(g, slice(None), *chunk)]
        cols = _columns(x[g], k, s, p, chunk)
        np.matmul(w2, cols, out=yc.reshape(-1, cout, yc[0, 0].size))
        del cols  # before the next columns exist
        _finish_block(yc, bias, leaky)
    return y


def _conv_chunks(n: int, col_rows: int, out_dims) -> list[tuple[slice, tuple]]:
    """(sample group, position chunk) pairs of a conv3d pass whose im2col
    columns have ``col_rows`` rows: groups of samples whose columns fit in
    ``_COLS_BUDGET`` bytes, each over one whole chunk when a sample's columns
    fit, else over slabs or runs of rows."""
    row_bytes = col_rows * out_dims[2] * 8
    groups = _batch_groups(n, out_dims[0] * out_dims[1] * row_bytes)
    chunks = _position_chunks(out_dims, row_bytes, 1)
    return [(g, chunk) for g in groups for chunk in chunks]


def conv3d_backward(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride=(1, 1, 1), padding=(0, 0, 0),
    grad_input: bool = True,
):
    """Weight and input gradients, (gw, gx), of ``conv3d(x, w, stride,
    padding)`` given ``gy``, the gradient of its biased output before any
    activation; ``gx`` is None without ``grad_input``. The bias gradient is
    ``gy.sum(axis=(0, 2, 3, 4))``.

    The weight gradient adds each sample's term chunk by chunk from zeros
    (bitwise the batch ``.sum(axis=0)`` where a sample is one chunk, within
    rounding where it is split), rebuilding the forward's columns from
    ``x``. The input gradient, a new array, comes from the tap scatter
    (:func:`_scatter_taps`), the exact adjoint.
    """
    s, p = _triple(stride), _triple(padding)
    cout, k = w.shape[0], tuple(w.shape[2:])
    w2 = w.reshape(cout, -1)
    gw = np.zeros(w2.shape)
    for g, chunk in _conv_chunks(x.shape[0], w2.shape[1], gy.shape[2:]):
        cols = _columns(x[g], k, s, p, chunk)
        gyc = gy[(g, slice(None), *chunk)]
        for j in range(len(cols)):
            gw += gyc[j].reshape(cout, -1) @ cols[j].T
        del cols  # before the next columns exist
    gx = None
    if grad_input:
        gx = np.empty(x.shape)
        _scatter_taps(gy, w, s, p, gx)
    return gw.reshape(w.shape), gx


def conv_transpose3d(
    x: np.ndarray,
    w: np.ndarray,
    stride=(1, 1, 1),
    padding=(0, 0, 0),
    output_padding=(0, 0, 0),
    bias=None,
    leaky=False,
):
    """Transposed 3-D convolution, the adjoint of :func:`conv3d`.

    ``w`` has shape (in_channels, out_channels, kt, kh, kw) and the optional
    ``bias`` shape (out_channels,); with matching stride and padding,
    <conv3d(x, w), y> == <x, conv_transpose3d(y, w)>. Output dims follow
    (d - 1) * s - 2p + k + output_padding per axis. When ``leaky`` the output
    is the leaky ReLU of the biased transposed convolution.
    Returns a new array; records nothing.

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
    """
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
    y = np.empty((n, cout, *out_dims))
    _scatter_taps(x, w, s, p, y, bias, leaky)
    return y


def conv_transpose3d_backward(
    x: np.ndarray, w: np.ndarray, gy: np.ndarray, stride=(1, 1, 1), padding=(0, 0, 0),
    leaky_input: bool = False,
):
    """Weight gradient of ``conv_transpose3d(x, w, stride, padding, ...)``
    given ``gy``, the gradient of its biased output before any activation.
    The bias gradient is ``gy.sum(axis=(0, 2, 3, 4))``.

    The input gradient is written over ``x`` itself, which must be
    C-contiguous. With ``leaky_input``, ``x`` is a leaky ReLU's activated
    output and its gradient is also multiplied by that activation's
    derivative, so ``x`` ends as the gradient of its producer's
    pre-activation. Each chunk of ``x`` is read, for its sign and its
    weight-gradient term, before its input gradient overwrites it.

    This is a strided :func:`conv3d` of the output gradient. It runs per
    sample over chunks of the input position grid whose im2col columns fit in
    ``_COLS_BUDGET`` bytes (whole time slabs, or runs of rows of one slab
    when a slab does not fit), each from the column builder
    (:func:`_columns`). Per chunk and sample it takes the sign of the
    chunk's values, adds the chunk's weight-gradient term, runs the
    input-gradient GEMMs into the chunk and scales the values whose input
    was not positive by the slope; neither the padded output gradient nor a
    sample's full columns are ever held. The input gradient takes one GEMM
    per run of rows (:func:`_gemm_rows`) in every chunk, so it does not
    depend on the chunking, and the mask multiplies it exactly as a
    separate leaky-ReLU backward would. The weight gradient sums over
    positions chunk by chunk, so it moves with the chunking by rounding
    only. Both gradients are within 1e-12 relative of the whole-sample
    im2col backward.
    """
    s, p = _triple(stride), _triple(padding)
    n, cin, *dims = x.shape
    k = tuple(w.shape[2:])
    w2 = w.reshape(cin, -1)
    cout = w.shape[1]
    gw = np.zeros(w2.shape)
    # the input gradient takes one GEMM per run of rows in any chunk, as
    # BLAS may round a column differently with the column count
    run, width = _gemm_rows(cin, cout, dims), dims[2]
    if not x.flags.c_contiguous:
        raise ValueError("conv_transpose3d_backward writes over x, which must be C-contiguous")
    x_runs = x.reshape(n, cin, dims[0], dims[1] // run, run * width)
    stack = (1, 2, 0, 3)  # (time, run, channel, position in run)
    for chunk in _position_chunks(dims, w2.shape[1] * width * x.itemsize, run):
        runs = slice(chunk[1].start // run, chunk[1].stop // run)
        by_run = (chunk[0].stop - chunk[0].start, runs.stop - runs.start, run * width)
        for i in range(n):
            gcols = _columns(gy[i : i + 1], k, s, p, chunk)[0]
            xc = x[(i, slice(None), *chunk)]
            if leaky_input:
                # where the producer's leaky ReLU scaled its input
                scaled = xc > 0.0
                np.logical_not(scaled, out=scaled)
            gw += xc.reshape(cin, -1) @ gcols.T
            np.matmul(
                w2,
                gcols.reshape(-1, *by_run).transpose(stack),
                out=x_runs[i, :, chunk[0], runs].transpose(stack),
            )
            if leaky_input:
                np.multiply(xc, LEAKY_SLOPE, out=xc, where=scaled)
                del scaled
            del gcols  # before the next columns exist
    return gw.reshape(w.shape)
