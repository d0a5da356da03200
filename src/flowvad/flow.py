"""Multi-scale normalizing flow with exact log-likelihood.

The stack is built from L levels. Each level squeezes 2x2 spatial blocks
into channels (when the squeeze factor is 2), runs K steps of
(activation normalization, invertible 1x1 convolution, affine coupling),
and factors half the channels straight out to the prior, except at the
last level where everything goes to the prior. The prior is an isotropic
unit Gaussian, so

    log p(x) = log N(z; 0, I) + sum of per-layer log |det Jacobian|

holds exactly and the negative log-likelihood is exact, not a bound.

Every layer runs on plain arrays: ``forward`` returns its output, its
per-sample log |det| and what its ``backward`` needs, and ``backward`` maps
the output gradient to the input gradient while writing the gradient of
every parameter, asking none whether it wants one. A layer keeps two plain
dicts under the same keys: ``params``, its parameter arrays, and ``grads``,
the gradient array each backward writes in place; a layer built alone holds
zero gradients. The stack concatenates every layer's parameters into one
flat trainable vector, ``params``, and one flat gradient buffer, and
rebinds each layer's entries to views of both, so ``named_parameters()``
maps names to arrays and training sees one trainable array: per step, one
Adam update and, in ``train._fit``, one snapshot copy and one finiteness
sum. Rebinding a parameter detaches it from the vector: write in place. A
training call records and an inference call never does:
:meth:`FlowStack.forward` records the whole stack as one autodiff node, the
per-sample NLL, whose one parameter parent is the flat vector and whose
backward walks the layers in reverse: the prior gives d nll / dz = z, every
log-det term gets d nll / d logdet = -1, and the closed-form log-dets and
LU gradients follow Glow (Kingma and Dhariwal 2018, arXiv:1807.03039,
Table 1). :meth:`FlowStack.nll_of` and :meth:`FlowStack.init_actnorm` call
it with ``record=False``, and then no layer keeps anything for a backward.
Inverses run on plain arrays since sampling and round-trip checks never
need gradients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import assign_state
from .errors import NumericError, ShapeError
from .tensor import Tensor

__all__ = [
    "FlowConfig",
    "FlowStack",
    "FlowResult",
    "ActNorm",
    "InvertibleConv1x1",
    "AffineCoupling",
    "Squeeze",
    "gaussian_log_density",
]

_LOG_2PI = math.log(2.0 * math.pi)
# a coupling's log-scales lie in (-_CLAMP, _CLAMP)
_CLAMP = 2.0


def _window(k: int, size: int) -> tuple[slice, slice]:
    """Output and input slices along one axis for tap ``k`` of a 3-wide
    zero-padded window: output position i reads input i + k - 1."""
    return slice(max(0, 1 - k), size + min(0, 1 - k)), slice(max(0, k - 1), size + min(0, k - 1))


def _patches(x: np.ndarray) -> np.ndarray:
    """Columns of the zero-padded 3x3 neighbourhoods of channel-major
    (c, h, w, n) input, shape (c*9, h*w*n), rows in (c, kh, kw) order: row
    (ch, a, b) of column (i, j, m) is x[ch, i + a - 1, j + b - 1, m], or 0
    off the grid. One copy into a padded halo, one out of a strided view."""
    c, h, w, n = x.shape
    halo = np.zeros((c, h + 2, w + 2, n))
    halo[:, 1 : h + 1, 1 : w + 1] = x
    sc, sh, sw, sn = halo.strides
    view = np.ndarray((c, 3, 3, h, w, n), halo.dtype, halo, 0, (sc, sh, sw, sh, sw, sn))
    return view.reshape(c * 9, h * w * n)


@functools.cache
def _tap_windows(h: int, w: int) -> tuple[tuple[tuple, tuple], ...]:
    """(output index, tap index) of the eight off-centre taps of a 3x3
    window over an (h, w) grid, for :func:`_tap_sum`, in its summation
    order: column offset outer, row offset inner."""
    rows = [_window(k, h) for k in range(3)]
    pairs = []
    for b, (out_w, in_w) in enumerate(_window(k, w) for k in range(3)):
        for a, (out_h, in_h) in enumerate(rows):
            if a != 1 or b != 1:
                pairs.append(((slice(None), out_h, out_w), (a, b, slice(None), in_h, in_w)))
    return tuple(pairs)


def _tap_sum(taps: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """A zero-padded 3x3 conv from the products of each tap alone.

    ``taps`` is (9*c, h*w*n) with rows in (kh, kw, c) order, one GEMM of
    (kh, kw, cout)-ordered weights with the input; output position i sums
    tap (a, b) read at i + (a - 1, b - 1). Returns (c, h, w, n), built in
    place over the centre tap. Unlike :func:`_patches`, nothing of the
    input's width is copied nine times.
    """
    h, w, n = dims
    t = taps.reshape(3, 3, -1, h, w, n)
    out = t[1, 1]
    for dst, src in _tap_windows(h, w):
        part = out[dst]
        part += t[src]
    return out


def _flipped(m: np.ndarray) -> np.ndarray:
    """Weights (cout, cin*9) of a 3x3 conv -> weights (cin, cout*9) of the
    3x3 conv that maps its output gradient to its input gradient."""
    cout, cin = m.shape[0], m.shape[1] // 9
    flip = m.reshape(cout, cin, 3, 3)[:, :, ::-1, ::-1]
    return flip.transpose(1, 0, 2, 3).reshape(cin, cout * 9)


def _zeros_like(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A zero gradient array for each parameter, under the same key."""
    return {key: np.zeros_like(p) for key, p in params.items()}


def gaussian_log_density(z: np.ndarray) -> np.ndarray:
    """Per-sample log density under an isotropic unit Gaussian, shape (batch,)."""
    axes = tuple(range(1, z.ndim))
    d = math.prod(z.shape[1:])
    return (z * z).sum(axis=axes) * (-0.5) - 0.5 * d * _LOG_2PI


class ActNorm:
    """Per-channel affine y = exp(logs) * x + bias with data-dependent init.

    Starts as the identity. ``initialize`` sets the parameters so the first
    batch comes out with zero mean and unit variance per channel; training
    then adjusts them freely. log |det| = h * w * sum(logs) per sample.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.params = {"logs": np.zeros(channels), "bias": np.zeros(channels)}
        self.grads = _zeros_like(self.params)
        self.initialized = False

    def initialize(self, x: np.ndarray) -> None:
        mean = x.mean(axis=(0, 2, 3))
        std = x.std(axis=(0, 2, 3)) + 1e-6
        self.params["logs"][...] = -np.log(std)
        self.params["bias"][...] = -mean / std
        self.initialized = True

    def forward(self, x: np.ndarray, init: bool = False):
        if init and not self.initialized:
            self.initialize(x)
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"actnorm built for {self.channels} channels, got {x.shape}")
        logs, bias = self.params["logs"], self.params["bias"]
        scale = np.exp(logs).reshape(1, c, 1, 1)
        y = x * scale + bias.reshape(1, c, 1, 1)
        return y, logs.sum() * float(h * w), (x, scale)

    def backward(self, cache, g: np.ndarray, gld: np.ndarray) -> np.ndarray:
        x, scale = cache
        n, c, h, w = x.shape
        glogs = (g * x).sum(axis=(0, 2, 3)) * scale.reshape(c)
        np.add(glogs, float(h * w) * gld.sum(), out=self.grads["logs"])
        g.sum(axis=(0, 2, 3), out=self.grads["bias"])
        return g * scale

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        n, c, h, w = z.shape
        logs, bias = self.params["logs"], self.params["bias"]
        x = (z - bias.reshape(1, c, 1, 1)) / np.exp(logs).reshape(1, c, 1, 1)
        return x, -float(h * w * logs.sum())


def _lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU with partial pivoting: (p, l, u) with a = p @ l @ u, p a
    permutation, l unit lower and u upper triangular. Column j pivots on the
    first row at or below j of largest magnitude, as LAPACK's getrf does."""
    n = a.shape[0]
    u = np.array(a, dtype=np.float64)
    l = np.eye(n)
    order = np.arange(n)
    for j in range(n - 1):
        r = j + int(np.argmax(np.abs(u[j:, j])))
        u[[j, r]] = u[[r, j]]
        l[[j, r], :j] = l[[r, j], :j]
        order[[j, r]] = order[[r, j]]
        if u[j, j] != 0.0:  # else the column is already zero below j
            l[j + 1 :, j] = u[j + 1 :, j] / u[j, j]
            u[j + 1 :] -= np.outer(l[j + 1 :, j], u[j])
    return np.eye(n)[:, order], l, np.triu(u)


class InvertibleConv1x1:
    """Channel-mixing 1x1 convolution in LU form.

    W = P L U with a fixed permutation P, unit-diagonal lower L, and upper U
    whose diagonal is stored as fixed signs times exp(log_diag), so
    log |det W| = sum(log_diag) is available without any decomposition at
    run time. Initialized from a random rotation, giving log |det| = 0.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        q, _ = np.linalg.qr(rng.normal(size=(channels, channels)))
        p, l, u = _lu(q)
        diag = np.diag(u).copy()
        if np.any(np.abs(diag) < 1e-12):
            raise NumericError("singular diagonal in LU initialization")
        self.channels = channels
        self.perm = p  # constant
        self.sign = np.sign(diag)  # constant
        self.params = {
            "lower": np.tril(l, -1),
            "upper": np.triu(u, 1),
            "log_diag": np.log(np.abs(diag)),
        }
        self.grads = _zeros_like(self.params)
        self._mask_low = np.tril(np.ones((channels, channels)), -1)
        self._mask_up = np.triu(np.ones((channels, channels)), 1)
        self._eye = np.eye(channels)

    def _weight_np(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.params
        l_full = p["lower"] * self._mask_low + self._eye
        u_full = p["upper"] * self._mask_up + np.diag(self.sign * np.exp(p["log_diag"]))
        return self.perm, l_full, u_full

    def forward(self, x: np.ndarray, init: bool = False):
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"1x1 conv built for {self.channels} channels, got {x.shape}")
        perm, l_full, u_full = self._weight_np()
        wmat = perm @ (l_full @ u_full)
        cols = x.reshape(n, c, h * w)
        y = np.matmul(wmat, cols).reshape(n, c, h, w)
        return y, self.params["log_diag"].sum() * float(h * w), (cols, wmat, l_full, u_full)

    def backward(self, cache, g: np.ndarray, gld: np.ndarray) -> np.ndarray:
        cols, wmat, l_full, u_full = cache
        shape = g.shape
        g = g.reshape(cols.shape)
        # dW summed over samples, then through W = P (L U) to the factors
        g_lu = self.perm.T @ np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
        np.multiply(g_lu @ u_full.T, self._mask_low, out=self.grads["lower"])
        g_u = l_full.T @ g_lu
        np.multiply(g_u, self._mask_up, out=self.grads["upper"])
        # U's diagonal is sign * exp(log_diag), which also is the log-det
        gdiag = g_u.diagonal() * u_full.diagonal()
        np.add(gdiag, float(cols.shape[2]) * gld.sum(), out=self.grads["log_diag"])
        return np.matmul(wmat.T, g).reshape(shape)

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        n, c, h, w = z.shape
        perm, l_full, u_full = self._weight_np()
        # solve P L U x = z one factor at a time, all positions as columns
        cols = z.transpose(1, 0, 2, 3).reshape(c, -1)
        tmp = perm.T @ cols
        tmp = np.linalg.solve(u_full, np.linalg.solve(l_full, tmp))
        x = tmp.reshape(c, n, h, w).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(x), -float(h * w * self.params["log_diag"].sum())


class AffineCoupling:
    """Affine coupling: the first half of the channels drives an affine map
    of the second half.

    The conditioner is conv3x3 -> relu -> conv1x1 -> relu -> conv3x3 with a
    zero-initialized final layer, so the coupling starts as the identity.
    The scale is exp(_CLAMP * tanh(raw)), keeping log-scales in
    (-_CLAMP, _CLAMP) for stability while staying smooth.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        if channels < 2:
            raise ShapeError(f"coupling requires >= 2 channels, got {channels}")
        self.channels = channels
        self.ca = channels // 2
        self.cb = channels - self.ca
        std = 0.05
        self.params = {
            "w1": rng.normal(0, std, (hidden, self.ca, 3, 3)),
            "b1": np.zeros(hidden),
            "w2": rng.normal(0, std, (hidden, hidden, 1, 1)),
            "b2": np.zeros(hidden),
            "w3": np.zeros((2 * self.cb, hidden, 3, 3)),
            "b3": np.zeros(2 * self.cb),
        }
        self.grads = _zeros_like(self.params)

    def _net(self, xa: np.ndarray):
        """The conditioner on (n, ca, h, w) input.

        Returns its output, raw scale then shift, channel-major as
        (2*cb, h, w, n), and what :meth:`_net_backward` needs. Activations
        are channel-major, (channels, h*w*n), so each conv is one GEMM over
        the whole batch, and the batch axis last keeps the rows of a shifted
        3x3 tap contiguous. Only the narrow ca-channel input is expanded
        into 3x3 patch columns; the final 3x3 conv reads the wide hidden
        activations once, through :func:`_tap_sum`.
        """
        n, _, hh, ww = xa.shape
        p = self.params
        w1, w3 = p["w1"], p["w3"]
        hidden = w1.shape[0]
        cols1 = _patches(xa.transpose(1, 2, 3, 0))
        r1 = w1.reshape(hidden, -1) @ cols1
        r1 += p["b1"][:, None]
        np.maximum(r1, 0.0, out=r1)
        r2 = p["w2"].reshape(hidden, hidden) @ r1
        r2 += p["b2"][:, None]
        np.maximum(r2, 0.0, out=r2)
        out = _tap_sum(w3.transpose(2, 3, 0, 1).reshape(-1, hidden) @ r2, (hh, ww, n))
        out += p["b3"][:, None, None, None]
        return out, (cols1, r1, r2)

    def _net_backward(self, cache, g: np.ndarray) -> np.ndarray:
        """Conditioner gradients from the (2*cb, h, w, n) output gradient;
        returns the input gradient, channel-major (ca, h, w, n).

        The 3x3 patches of the narrow output gradient give both the final
        conv's weight gradient and, with the flipped kernel, its input
        gradient. The first conv's input gradient is the flipped-kernel conv
        of its output gradient, summed per tap.
        """
        cols1, r1, r2 = cache
        w1, w2, w3 = self.params["w1"], self.params["w2"], self.params["w3"]
        grads = self.grads
        hidden = w1.shape[0]
        g.sum(axis=(1, 2, 3), out=grads["b3"])
        cols = _patches(g)
        # row (o, a, b) of cols holds g shifted by (a - 1, b - 1), which
        # meets r2 through tap (2 - a, 2 - b) of w3
        gw = (cols @ r2.T).reshape(-1, 3, 3, hidden)
        grads["w3"][...] = gw[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        gh = _flipped(w3.reshape(w3.shape[0], -1)) @ cols
        gh *= r2 > 0.0
        gh.sum(axis=1, out=grads["b2"])
        np.matmul(gh, r1.T, out=grads["w2"].reshape(hidden, hidden))
        gh = w2.reshape(hidden, hidden).T @ gh
        gh *= r1 > 0.0
        gh.sum(axis=1, out=grads["b1"])
        np.matmul(gh, cols1.T, out=grads["w1"].reshape(hidden, -1))
        taps = w1[:, :, ::-1, ::-1].transpose(2, 3, 1, 0).reshape(-1, hidden) @ gh
        return _tap_sum(taps, g.shape[1:])

    def forward(self, x: np.ndarray, init: bool = False):
        if x.shape[1] != self.channels:
            raise ShapeError(f"coupling built for {self.channels} channels, got {x.shape}")
        xa, xb = x[:, : self.ca], x[:, self.ca :]
        h, net = self._net(xa)
        t = np.tanh(h[: self.cb].transpose(3, 0, 1, 2))
        log_s = t * _CLAMP
        s = np.exp(log_s)
        y = np.empty(x.shape)
        y[:, : self.ca] = xa
        yb = np.multiply(xb, s, out=y[:, self.ca :])
        yb += h[self.cb :].transpose(3, 0, 1, 2)
        return y, log_s.sum(axis=(1, 2, 3)), (xb, t, s, net)

    def backward(self, cache, g: np.ndarray, gld: np.ndarray) -> np.ndarray:
        xb, t, s, net = cache
        ca, cb = self.ca, self.cb
        n, _, hh, ww = g.shape
        gyb = g[:, ca:]
        # yb = xb * exp(log_s) + shift and log_s = _CLAMP * tanh(raw) also
        # sums into the log-det
        glog = s * (gyb * xb) + gld.reshape(n, 1, 1, 1)
        gh = np.empty((2 * cb, hh, ww, n))
        gh[:cb] = ((1.0 - t * t) * (glog * _CLAMP)).transpose(1, 2, 3, 0)
        gh[cb:] = gyb.transpose(1, 2, 3, 0)
        gx = np.empty(g.shape)
        np.add(g[:, :ca], self._net_backward(net, gh).transpose(3, 0, 1, 2), out=gx[:, :ca])
        np.multiply(gyb, s, out=gx[:, ca:])
        return gx

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        za, zb = z[:, : self.ca], z[:, self.ca :]
        h, _ = self._net(za)
        log_s = np.tanh(h[: self.cb].transpose(3, 0, 1, 2)) * _CLAMP
        xb = (zb - h[self.cb :].transpose(3, 0, 1, 2)) / np.exp(log_s)
        logdet_inv = -log_s.sum(axis=(1, 2, 3))
        return np.concatenate([za, xb], axis=1), logdet_inv


class Squeeze:
    """Trade 2x2 spatial blocks for channels; a pure permutation, log |det| 0."""

    def __init__(self):
        self.params, self.grads = {}, {}

    def forward(self, x: np.ndarray, init: bool = False):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"spatial dims {(h, w)} not divisible by the 2x2 squeeze")
        out = (
            x.reshape(n, c, h // 2, 2, w // 2, 2)
            .transpose((0, 1, 3, 5, 2, 4))
            .reshape(n, c * 4, h // 2, w // 2)
        )
        return out, 0.0, None

    def backward(self, cache, g: np.ndarray, gld: np.ndarray) -> np.ndarray:
        return self.inverse(g)[0]

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        n, c4, h, w = z.shape
        c = c4 // 4
        x = (
            z.reshape(n, c, 2, 2, h, w)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, c, h * 2, w * 2)
        )
        return np.ascontiguousarray(x), 0.0


@dataclass
class FlowConfig:
    """Stack hyperparameters. ``squeeze`` may be 1 for vector-like inputs."""

    channels: int
    levels: int = 2
    steps: int = 4
    hidden: int = 64
    squeeze: int = 2

    def __post_init__(self):
        problems = []
        if self.channels < 1:
            problems.append(f"channels must be >= 1, got {self.channels}")
        if self.levels < 1:
            problems.append(f"levels must be >= 1, got {self.levels}")
        if self.steps < 1:
            problems.append(f"steps must be >= 1, got {self.steps}")
        if self.squeeze not in (1, 2):
            problems.append(f"squeeze factor must be 1 or 2, got {self.squeeze}")
        if problems:
            raise ShapeError("; ".join(problems))
        c = self.channels
        for level in range(self.levels):
            c *= self.squeeze**2
            if c < 2:
                raise ShapeError(
                    f"level {level} would run couplings on {c} channel(s); "
                    "need at least 2 after squeezing"
                )
            if level < self.levels - 1:
                c //= 2


@dataclass
class FlowResult:
    """Everything the forward pass knows about a batch."""

    nll: Tensor  # (batch,), the one graph node of the stack
    logdet: np.ndarray  # (batch,)
    z_parts: list[np.ndarray]


class FlowStack:
    """L levels of K flow steps with multi-scale factor-out."""

    def __init__(self, config: FlowConfig, rng: np.random.Generator):
        self.config = config
        self.levels: list[dict] = []
        c = config.channels
        for level in range(config.levels):
            c *= config.squeeze**2
            steps = [
                (ActNorm(c), InvertibleConv1x1(c, rng), AffineCoupling(c, config.hidden, rng))
                for _ in range(config.steps)
            ]
            # (name, layer) in forward order; the name prefixes its parameters
            layers = []
            if config.squeeze > 1:
                layers.append((f"level{level}.squeeze", Squeeze()))
            for si, step in enumerate(steps):
                kinds = ("actnorm", "mix", "coupling")
                layers += [(f"level{level}.step{si}.{k}", t) for k, t in zip(kinds, step)]
            keep = c // 2 if level < config.levels - 1 else c
            self.levels.append({"steps": steps, "layers": layers, "channels": c, "keep": keep})
            c = keep
        # the one trainable array and its gradient buffer; every layer's
        # parameters and gradients become views into them, so write in place
        flat = np.concatenate([p.reshape(-1) for p in self.named_parameters().values()])
        self.params = Tensor(flat, requires_grad=True)
        self._grads = np.zeros(flat.size)
        start = 0
        for level in self.levels:
            for _, layer in level["layers"]:
                for key, p in layer.params.items():
                    part = slice(start, start + p.size)
                    layer.params[key] = flat[part].reshape(p.shape)
                    layer.grads[key] = self._grads[part].reshape(p.shape)
                    start += p.size

    # ------------------------------------------------------------ forward

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4:
            raise ShapeError(f"flow input must be (batch, channel, h, w), got {x.shape}")
        n, c, h, w = x.shape
        if c != self.config.channels:
            raise ShapeError(
                f"flow built for {self.config.channels} channels, got input {x.shape}"
            )
        div = self.config.squeeze**self.config.levels
        if h % div or w % div:
            raise ShapeError(
                f"spatial dims {(h, w)} must be divisible by {div} "
                f"(squeeze {self.config.squeeze} x {self.config.levels} levels)"
            )

    def forward(self, x, init: bool = False, record: bool = True) -> FlowResult:
        """Map input to latents; returns per-sample NLL and the logdet total.

        With ``record`` the NLL is one graph node whose parents are ``x``
        (when a Tensor requiring gradients) and the flat parameter vector
        ``params``; its backward is the layers' own, in reverse, which write
        their gradient views of the flat buffer, and then hands the buffer
        to ``params.grad``. A backward overwrites the one before it.
        Without it nothing is recorded or kept for a backward.
        """
        x_in = x if isinstance(x, Tensor) else None
        x = np.asarray(x.data if x_in is not None else x, dtype=np.float64)
        self._check_input(x)
        n = x.shape[0]
        wants_x = x_in is not None and x_in.requires_grad
        h = x
        logdet = np.zeros(n)
        z_parts: list[np.ndarray] = []
        caches = []
        for level in self.levels:
            for _, layer in level["layers"]:
                h, ld, cache = layer.forward(h, init=init)
                logdet = logdet + ld
                if record:
                    caches.append((layer, cache))
            if level["keep"] < level["channels"]:
                z_parts.append(h[:, level["keep"] :])
                h = h[:, : level["keep"]]
        z_parts.append(h)

        log_prior = gaussian_log_density(z_parts[0])
        for z in z_parts[1:]:
            log_prior = log_prior + gaussian_log_density(z)
        nll = Tensor((log_prior + logdet) * (-1.0))

        def backward():
            go = nll.grad
            gld = -go  # nll = -(log prior + logdet)
            g_parts = [z * go.reshape(n, 1, 1, 1) for z in z_parts]
            g = g_parts.pop()
            for level in reversed(self.levels):
                if level["keep"] < level["channels"]:
                    g = np.concatenate([g, g_parts.pop()], axis=1)
                for _ in level["layers"]:
                    layer, cache = caches.pop()
                    g = layer.backward(cache, g, gld)
            self.params.grad = self._grads
            if wants_x:
                x_in._accumulate(g)

        if record:
            nll._record(([x_in] if wants_x else []) + [self.params], backward)
        return FlowResult(nll=nll, logdet=logdet, z_parts=z_parts)

    def nll_of(self, x) -> np.ndarray:
        """Per-sample negative log-likelihood; records no graph."""
        return self.forward(x, record=False).nll.data

    # ------------------------------------------------------------ inverse

    def inverse(self, z_parts: list[np.ndarray], return_logdet: bool = False):
        """Rebuild the input from latent parts emitted by :meth:`forward`."""
        if len(z_parts) != self.config.levels:
            raise ShapeError(
                f"expected {self.config.levels} latent parts, got {len(z_parts)}"
            )
        parts = [np.asarray(z, dtype=np.float64) for z in z_parts]
        n = parts[-1].shape[0]
        total = np.zeros(n)
        h = parts[-1]
        for li in range(self.config.levels - 1, -1, -1):
            level = self.levels[li]
            if level["keep"] < level["channels"]:
                h = np.concatenate([h, parts[li]], axis=1)
            if h.shape[1] != level["channels"]:
                raise ShapeError(
                    f"latent part channel mismatch at level {li}: "
                    f"{h.shape} vs expected {level['channels']} channels"
                )
            for _, layer in reversed(level["layers"]):
                h, ld = layer.inverse(h)
                total = total + ld
        return (h, total) if return_logdet else h

    def init_actnorm(self, x) -> None:
        """Data-dependent initialization pass over one batch; records no
        graph."""
        self.forward(x, init=True, record=False)

    # --------------------------------------------------------- parameters

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Every layer's parameter arrays, in the order of ``params``."""
        return {
            f"{name}.{key}": p
            for level in self.levels
            for name, layer in level["layers"]
            for key, p in layer.params.items()
        }

    def parameters(self) -> list[Tensor]:
        """The trainable arrays: the one flat vector the named parameters
        are views into."""
        return [self.params]

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        assign_state(self.named_parameters(), state)
        for level in self.levels:
            for an, _, _ in level["steps"]:
                an.initialized = True
