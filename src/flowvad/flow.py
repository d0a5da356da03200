"""Multi-scale normalizing flow with exact log-likelihood.

The stack is built from L levels. Each level squeezes 2x2 spatial blocks
into channels (when the squeeze factor is 2), runs K steps of
(activation normalization, invertible 1x1 convolution, affine coupling),
and factors half the channels straight out to the prior, except at the
last level where everything goes to the prior. The prior is an isotropic
unit Gaussian, so

    log p(x) = log N(z; 0, I) + sum of per-layer log |det Jacobian|

holds exactly and the negative log-likelihood is exact, not a bound.

Forward runs on autodiff tensors for training. Each actnorm, 1x1 mix and
coupling conditioner is a single graph node whose backward is written out
in NumPy (the LU gradients follow Glow, Kingma and Dhariwal 2018,
arXiv:1807.03039); the log-determinant terms, the coupling's affine part
and the level plumbing are ordinary autodiff ops. :meth:`FlowStack.nll_of`
runs under :func:`~flowvad.tensor.no_grad` and builds no graph. Inverses
run on plain arrays since sampling and round-trip checks never need
gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu as lu_decompose
from scipy.linalg import solve_triangular

from .errors import NumericError, ShapeError
from .tensor import Tensor, concat, no_grad

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


def _window(k: int, size: int) -> tuple[slice, slice]:
    """Output and input slices along one axis for tap ``k`` of a 3-wide
    zero-padded window: output position i reads input i + k - 1."""
    return slice(max(0, 1 - k), size + min(0, 1 - k)), slice(max(0, k - 1), size + min(0, k - 1))


def _patches(x: np.ndarray) -> np.ndarray:
    """Columns of the zero-padded 3x3 neighbourhoods of channel-major
    (c, n, h, w) input, shape (c*9, n*h*w), rows in (c, kh, kw) order."""
    c, n, h, w = x.shape
    cols = np.zeros((c, 3, 3, n, h, w))
    rows = [_window(k, h) for k in range(3)]
    for b, (out_w, in_w) in enumerate(_window(k, w) for k in range(3)):
        for a, (out_h, in_h) in enumerate(rows):
            cols[:, a, b, :, out_h, out_w] = x[:, :, in_h, in_w]
    return cols.reshape(c * 9, n * h * w)


def _flipped(m: np.ndarray) -> np.ndarray:
    """Weights (cout, cin*9) of a 3x3 conv -> weights (cin, cout*9) of the
    3x3 conv that maps its output gradient to its input gradient."""
    cout, cin = m.shape[0], m.shape[1] // 9
    flip = m.reshape(cout, cin, 3, 3)[:, :, ::-1, ::-1]
    return flip.transpose(1, 0, 2, 3).reshape(cin, cout * 9)


def gaussian_log_density(z: Tensor) -> Tensor:
    """Per-sample log density under an isotropic unit Gaussian, shape (batch,)."""
    axes = tuple(range(1, z.ndim))
    d = int(np.prod(z.shape[1:]))
    return (z * z).sum(axis=axes) * (-0.5) - 0.5 * d * _LOG_2PI


class ActNorm:
    """Per-channel affine y = exp(logs) * x + bias with data-dependent init.

    Starts as the identity. ``initialize`` sets the parameters so the first
    batch comes out with zero mean and unit variance per channel; training
    then adjusts them freely. log |det| = h * w * sum(logs) per sample.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.logs = Tensor(np.zeros(channels), requires_grad=True)
        self.bias = Tensor(np.zeros(channels), requires_grad=True)
        self.initialized = False

    def initialize(self, x: np.ndarray) -> None:
        mean = x.mean(axis=(0, 2, 3))
        std = x.std(axis=(0, 2, 3)) + 1e-6
        self.logs.data = -np.log(std)
        self.bias.data = -mean / std
        self.initialized = True

    def forward(self, x: Tensor, init: bool = False) -> tuple[Tensor, Tensor]:
        if init and not self.initialized:
            self.initialize(x.data)
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"actnorm built for {self.channels} channels, got {x.shape}")
        logs, bias = self.logs, self.bias
        scale = np.exp(logs.data).reshape(1, c, 1, 1)
        out = Tensor(x.data * scale + bias.data.reshape(1, c, 1, 1))

        def backward():
            g = out.grad
            if x.requires_grad:
                x._accumulate(g * scale)
            if logs.requires_grad:
                logs._accumulate((g * x.data).sum(axis=(0, 2, 3)) * scale.reshape(c))
            if bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)))

        logdet = logs.sum() * float(h * w)
        return out._record((x, logs, bias), backward), logdet

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        n, c, h, w = z.shape
        scale = np.exp(self.logs.data).reshape(1, c, 1, 1)
        x = (z - self.bias.data.reshape(1, c, 1, 1)) / scale
        return x, -float(h * w * self.logs.data.sum())

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.logs": self.logs, f"{prefix}.bias": self.bias}


class InvertibleConv1x1:
    """Channel-mixing 1x1 convolution in LU form.

    W = P L U with a fixed permutation P, unit-diagonal lower L, and upper U
    whose diagonal is stored as fixed signs times exp(log_diag), so
    log |det W| = sum(log_diag) is available without any decomposition at
    run time. Initialized from a random rotation, giving log |det| = 0.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        q, _ = np.linalg.qr(rng.normal(size=(channels, channels)))
        p, l, u = lu_decompose(q)
        diag = np.diag(u).copy()
        if np.any(np.abs(diag) < 1e-12):
            raise NumericError("singular diagonal in LU initialization")
        self.channels = channels
        self.perm = p  # constant
        self.sign = np.sign(diag)  # constant
        self.lower = Tensor(np.tril(l, -1), requires_grad=True)
        self.upper = Tensor(np.triu(u, 1), requires_grad=True)
        self.log_diag = Tensor(np.log(np.abs(diag)), requires_grad=True)
        self._mask_low = np.tril(np.ones((channels, channels)), -1)
        self._mask_up = np.triu(np.ones((channels, channels)), 1)
        self._eye = np.eye(channels)

    def _weight_np(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = self.channels
        l_full = self.lower.data * self._mask_low + self._eye
        u_full = self.upper.data * self._mask_up + np.diag(
            self.sign * np.exp(self.log_diag.data)
        )
        return self.perm, l_full, u_full

    def forward(self, x: Tensor, init: bool = False) -> tuple[Tensor, Tensor]:
        n, c, h, w = x.shape
        if c != self.channels:
            raise ShapeError(f"1x1 conv built for {self.channels} channels, got {x.shape}")
        perm, l_full, u_full = self._weight_np()
        wmat = perm @ (l_full @ u_full)
        cols = x.data.reshape(n, c, h * w)
        out = Tensor(np.matmul(wmat, cols).reshape(n, c, h, w))
        lower, upper, log_diag = self.lower, self.upper, self.log_diag

        def backward():
            g = out.grad.reshape(n, c, h * w)
            if x.requires_grad:
                x._accumulate(np.matmul(wmat.T, g).reshape(x.shape))
            if not (lower.requires_grad or upper.requires_grad or log_diag.requires_grad):
                return
            # dW summed over samples, then through W = P (L U) to the factors
            g_lu = perm.T @ np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
            if lower.requires_grad:
                lower._accumulate((g_lu @ u_full.T) * self._mask_low)
            g_u = l_full.T @ g_lu
            if upper.requires_grad:
                upper._accumulate(g_u * self._mask_up)
            if log_diag.requires_grad:
                # U's diagonal is sign * exp(log_diag)
                log_diag._accumulate(np.diag(g_u) * np.diag(u_full))

        logdet = log_diag.sum() * float(h * w)
        return out._record((x, lower, upper, log_diag), backward), logdet

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        n, c, h, w = z.shape
        perm, l_full, u_full = self._weight_np()
        # solve P L U x = z one factor at a time, all positions as columns
        cols = z.transpose(1, 0, 2, 3).reshape(c, -1)
        tmp = perm.T @ cols
        tmp = solve_triangular(l_full, tmp, lower=True, unit_diagonal=True)
        tmp = solve_triangular(u_full, tmp, lower=False)
        x = tmp.reshape(c, n, h, w).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(x), -float(h * w * self.log_diag.data.sum())

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.lower": self.lower,
            f"{prefix}.upper": self.upper,
            f"{prefix}.log_diag": self.log_diag,
        }


class AffineCoupling:
    """Affine coupling: the first half of the channels drives an affine map
    of the second half.

    The conditioner is conv3x3 -> relu -> conv1x1 -> relu -> conv3x3 with a
    zero-initialized final layer, so the coupling starts as the identity.
    The scale is exp(clamp * tanh(raw)), keeping log-scales in
    (-clamp, clamp) for stability while staying smooth.
    """

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator, clamp: float = 2.0):
        if channels < 2:
            raise ShapeError(f"coupling requires >= 2 channels, got {channels}")
        self.channels = channels
        self.ca = channels // 2
        self.cb = channels - self.ca
        self.clamp = float(clamp)
        std = 0.05
        self.w1 = Tensor(rng.normal(0, std, (hidden, self.ca, 3, 3)), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0, std, (hidden, hidden, 1, 1)), requires_grad=True)
        self.b2 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w3 = Tensor(np.zeros((2 * self.cb, hidden, 3, 3)), requires_grad=True)
        self.b3 = Tensor(np.zeros(2 * self.cb), requires_grad=True)

    def _net(self, xa: Tensor) -> tuple[Tensor, Tensor]:
        """The conditioner as one graph node; returns (raw scale, shift).

        Activations are channel-major, (channels, n*h*w), so each conv is one
        GEMM over the whole batch: the 3x3 convs on patch columns, the 1x1
        conv on the activations themselves. The input gradient of a 3x3 conv
        is the 3x3 conv of its output gradient with the flipped kernel.
        """
        n, ca, hh, ww = xa.shape
        dims = (n, hh, ww)
        w1, b1, w2, b2, w3, b3 = self.w1, self.b1, self.w2, self.b2, self.w3, self.b3
        hidden = w1.shape[0]
        m1 = w1.data.reshape(hidden, -1)
        m2 = w2.data.reshape(hidden, hidden)
        m3 = w3.data.reshape(w3.shape[0], -1)
        cols1 = _patches(xa.data.transpose(1, 0, 2, 3))
        r1 = m1 @ cols1
        r1 += b1.data[:, None]
        np.maximum(r1, 0.0, out=r1)
        r2 = m2 @ r1
        r2 += b2.data[:, None]
        np.maximum(r2, 0.0, out=r2)
        cols3 = _patches(r2.reshape(hidden, *dims))
        h3 = m3 @ cols3
        h3 += b3.data[:, None]
        out = Tensor(h3.reshape(-1, *dims).transpose(1, 0, 2, 3))

        def backward():
            g = out.grad.transpose(1, 0, 2, 3).reshape(m3.shape[0], -1)
            if b3.requires_grad:
                b3._accumulate(g.sum(axis=1))
            if w3.requires_grad:
                w3._accumulate((g @ cols3.T).reshape(w3.shape))
            if not any(t.requires_grad for t in (w2, b2, w1, b1, xa)):
                return
            g = np.where(r2 > 0.0, _flipped(m3) @ _patches(g.reshape(-1, *dims)), 0.0)
            if b2.requires_grad:
                b2._accumulate(g.sum(axis=1))
            if w2.requires_grad:
                w2._accumulate((g @ r1.T).reshape(w2.shape))
            if not any(t.requires_grad for t in (w1, b1, xa)):
                return
            g = np.where(r1 > 0.0, m2.T @ g, 0.0)
            if b1.requires_grad:
                b1._accumulate(g.sum(axis=1))
            if w1.requires_grad:
                w1._accumulate((g @ cols1.T).reshape(w1.shape))
            if xa.requires_grad:
                gx = _flipped(m1) @ _patches(g.reshape(hidden, *dims))
                xa._accumulate(gx.reshape(ca, *dims).transpose(1, 0, 2, 3))

        h = out._record((xa, w1, b1, w2, b2, w3, b3), backward)
        return h[:, : self.cb], h[:, self.cb :]

    def forward(self, x: Tensor, init: bool = False) -> tuple[Tensor, Tensor]:
        if x.shape[1] != self.channels:
            raise ShapeError(f"coupling built for {self.channels} channels, got {x.shape}")
        xa, xb = x[:, : self.ca], x[:, self.ca :]
        raw, shift = self._net(xa)
        log_s = raw.tanh() * self.clamp
        yb = xb * log_s.exp() + shift
        logdet = log_s.sum(axis=(1, 2, 3))
        return concat([xa, yb], axis=1), logdet

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        za, zb = z[:, : self.ca], z[:, self.ca :]
        with no_grad():
            raw, shift = self._net(Tensor(za))
        log_s = np.tanh(raw.data) * self.clamp
        xb = (zb - shift.data) / np.exp(log_s)
        logdet_inv = -log_s.sum(axis=(1, 2, 3))
        return np.concatenate([za, xb], axis=1), logdet_inv

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
            f"{prefix}.w3": self.w3,
            f"{prefix}.b3": self.b3,
        }


class Squeeze:
    """Trade 2x2 spatial blocks for channels; a pure permutation, log |det| 0."""

    def __init__(self, factor: int = 2):
        if factor < 1:
            raise ShapeError(f"squeeze factor must be >= 1, got {factor}")
        self.factor = factor

    def forward(self, x: Tensor, init: bool = False) -> tuple[Tensor, Tensor]:
        f = self.factor
        if f == 1:
            return x, Tensor(0.0)
        n, c, h, w = x.shape
        if h % f or w % f:
            raise ShapeError(f"spatial dims {(h, w)} not divisible by squeeze factor {f}")
        out = (
            x.reshape(n, c, h // f, f, w // f, f)
            .transpose((0, 1, 3, 5, 2, 4))
            .reshape(n, c * f * f, h // f, w // f)
        )
        return out, Tensor(0.0)

    def inverse(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        f = self.factor
        if f == 1:
            return z, 0.0
        n, c4, h, w = z.shape
        c = c4 // (f * f)
        x = (
            z.reshape(n, c, f, f, h, w)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(n, c, h * f, w * f)
        )
        return np.ascontiguousarray(x), 0.0

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {}


@dataclass
class FlowConfig:
    """Stack hyperparameters. ``squeeze`` may be 1 for vector-like inputs."""

    channels: int
    levels: int = 2
    steps: int = 4
    hidden: int = 64
    squeeze: int = 2
    scale_clamp: float = 2.0

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

    nll: Tensor  # (batch,)
    log_prior: Tensor  # (batch,)
    logdet: Tensor  # (batch,)
    z_parts: list[Tensor]
    dims: int

    def bits_per_dim(self) -> np.ndarray:
        return self.nll.data / (self.dims * math.log(2.0))


class FlowStack:
    """L levels of K flow steps with multi-scale factor-out."""

    def __init__(self, config: FlowConfig, rng: np.random.Generator):
        self.config = config
        self.levels: list[dict] = []
        c = config.channels
        for level in range(config.levels):
            squeeze = Squeeze(config.squeeze)
            c *= config.squeeze**2
            steps = []
            for _ in range(config.steps):
                steps.append(
                    (
                        ActNorm(c),
                        InvertibleConv1x1(c, rng),
                        AffineCoupling(c, config.hidden, rng, clamp=config.scale_clamp),
                    )
                )
            keep = c // 2 if level < config.levels - 1 else c
            self.levels.append({"squeeze": squeeze, "steps": steps, "channels": c, "keep": keep})
            c = keep

    # ------------------------------------------------------------ forward

    def _check_input(self, x: Tensor) -> None:
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

    def forward(
        self, x, init: bool = False, trace: list | None = None
    ) -> FlowResult:
        """Map input to latents; returns per-sample NLL and the logdet total.

        ``trace``, when a list, collects (layer_name, per_sample_logdet)
        pairs so the chain-sum identity can be checked from outside.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        self._check_input(x)
        n = x.shape[0]
        dims = int(np.prod(x.shape[1:]))
        h = x
        logdet = Tensor(np.zeros(n))
        z_parts: list[Tensor] = []

        def note(name: str, ld: Tensor):
            if trace is not None:
                arr = ld.data if isinstance(ld, Tensor) else np.asarray(ld)
                trace.append((name, np.broadcast_to(arr, (n,)).copy()))

        for li, level in enumerate(self.levels):
            if self.config.squeeze > 1:
                h, ld = level["squeeze"].forward(h)
                note(f"level{li}.squeeze", ld)
                logdet = logdet + ld
            for si, (an, inv, cpl) in enumerate(level["steps"]):
                h, ld = an.forward(h, init=init)
                note(f"level{li}.step{si}.actnorm", ld)
                logdet = logdet + ld
                h, ld = inv.forward(h)
                note(f"level{li}.step{si}.mix", ld)
                logdet = logdet + ld
                h, ld = cpl.forward(h)
                note(f"level{li}.step{si}.coupling", ld)
                logdet = logdet + ld
            if level["keep"] < level["channels"]:
                z_parts.append(h[:, level["keep"] :])
                h = h[:, : level["keep"]]
        z_parts.append(h)

        log_prior = gaussian_log_density(z_parts[0])
        for z in z_parts[1:]:
            log_prior = log_prior + gaussian_log_density(z)
        nll = (log_prior + logdet) * (-1.0)
        return FlowResult(nll=nll, log_prior=log_prior, logdet=logdet, z_parts=z_parts, dims=dims)

    def nll_of(self, x) -> np.ndarray:
        """Per-sample negative log-likelihood; records no graph."""
        with no_grad():
            return self.forward(x).nll.data.copy()

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
            for an, inv, cpl in reversed(level["steps"]):
                h, ld = cpl.inverse(h)
                total = total + ld
                h, ld = inv.inverse(h)
                total = total + ld
                h, ld = an.inverse(h)
                total = total + ld
            if self.config.squeeze > 1:
                h, _ = level["squeeze"].inverse(h)
        return (h, total) if return_logdet else h

    def init_actnorm(self, x) -> None:
        """Data-dependent initialization pass over one batch."""
        with no_grad():
            self.forward(x, init=True)

    # --------------------------------------------------------- parameters

    @property
    def num_transforms(self) -> int:
        count = 0
        for level in self.levels:
            if self.config.squeeze > 1:
                count += 1
            count += 3 * len(level["steps"])
            if level["keep"] < level["channels"]:
                count += 1
        return count

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for li, level in enumerate(self.levels):
            for si, (an, inv, cpl) in enumerate(level["steps"]):
                out.update(an.named_parameters(f"level{li}.step{si}.actnorm"))
                out.update(inv.named_parameters(f"level{li}.step{si}.mix"))
                out.update(cpl.named_parameters(f"level{li}.step{si}.coupling"))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ShapeError(f"flow state mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != tensor.shape:
                raise ShapeError(
                    f"{name}: stored shape {arr.shape} != model shape {tensor.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name}: stored parameters contain non-finite values")
            tensor.data = arr.copy()
        for level in self.levels:
            for an, _, _ in level["steps"]:
                an.initialized = True
