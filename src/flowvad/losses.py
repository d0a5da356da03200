"""Reconstruction losses: mean squared error, multi-scale SSIM, gradient difference.

The three terms are combined with equal weight. MS-SSIM runs per frame on
the channel-mean (luminance) image with the standard 5-scale weights; when
the frame is too small for five halvings the scale count is reduced and the
remaining weights are renormalized to sum to one: a side of 176 pixels or
more takes all 5 scales, 88 takes 4, 44 takes 3 (so 64x64 takes 3), 22
takes 2 and 11 takes 1 (:func:`usable_scales`).

:func:`recon_loss` records one autodiff node, the total, whose only parent
is the reconstruction, exactly when the reconstruction requires a gradient;
otherwise it keeps nothing for a backward. Its forward runs on plain
arrays; the separable Gaussian blur and the 2x2 halving are
:func:`~flowvad.tensor.conv3d` calls. Its hand-written backward gives
d total / d output. The L2 and gradient difference terms differentiate in
closed form. MS-SSIM runs the chain level by level, from the coarsest:
each level's factor gradient goes through its cs and luminance maps to the
blurred statistics (the maps), through the blur's adjoint to the frames,
and the next coarser level's frame gradient joins through the halving's
adjoint; both adjoints are :func:`~flowvad.tensor.conv_transpose3d` calls
with the forward kernels. Last, the channel mean's adjoint spreads the
frame gradient over the channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, conv3d, conv_transpose3d

__all__ = ["ReconLoss", "recon_loss", "usable_scales", "MS_SSIM_WEIGHTS", "SSIM_WINDOW"]

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_WINDOW = 11  # side of the Gaussian window; the smallest frame MS-SSIM takes
_SIGMA = 1.5
_C1 = 0.01**2  # (k1 * data_range)^2 with data_range 1
_C2 = 0.03**2
_EPS = 1e-6
_MAP_AXES = (1, 2, 3, 4)


def _gaussian_1d() -> np.ndarray:
    coords = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * _SIGMA**2))
    return g / g.sum()


# the blur's kernels along width and height, and the 2x2 halving's
_KW = _gaussian_1d().reshape(1, 1, 1, 1, SSIM_WINDOW)
_KH = _KW.reshape(1, 1, 1, SSIM_WINDOW, 1)
_POOL = np.full((1, 1, 1, 2, 2), 0.25)
_HALVE_STRIDE = (1, 2, 2)


def _blur(x: np.ndarray) -> np.ndarray:
    """Separable valid-mode Gaussian filter over the last two axes."""
    return conv3d(conv3d(x, _KW), _KH)


def _blur_adjoint(g: np.ndarray) -> np.ndarray:
    return conv_transpose3d(conv_transpose3d(g, _KH), _KW)


def _halve(x: np.ndarray) -> np.ndarray:
    return conv3d(x, _POOL, stride=_HALVE_STRIDE)


def _halve_adjoint(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`_halve` back onto frames of ``shape``; an odd side's
    last row or column, which the halving drops, gets zero."""
    extra = (0, shape[3] % 2, shape[4] % 2)
    return conv_transpose3d(g, _POOL, stride=_HALVE_STRIDE, output_padding=extra)


def usable_scales(height: int, width: int) -> int:
    """Largest scale count such that the coarsest level still fits the window."""
    side = min(height, width)
    scales = 0
    while scales < len(MS_SSIM_WEIGHTS) and side >= SSIM_WINDOW:
        scales += 1
        side //= 2
    return scales


def _to_frames(x: np.ndarray) -> np.ndarray:
    """(B, C, T, H, W) -> (B*T, 1, 1, H, W) luminance frames."""
    b, _, t, h, w = x.shape
    return x.mean(axis=1, keepdims=True).transpose(0, 2, 1, 3, 4).reshape(b * t, 1, 1, h, w)


def _ssim_level(fx: np.ndarray, fy: np.ndarray, last: bool):
    """One MS-SSIM level of (N, 1, 1, h, w) frames.

    Returns each frame's factor, the mean of the cs map or, at the last
    level, of luminance times cs, and the arrays :func:`_level_grad` reads.
    """
    mu1, mu2 = _blur(fx), _blur(fy)
    mu1_sq, mu2_sq, mu12 = mu1 * mu1, mu2 * mu2, mu1 * mu2
    s1 = _blur(fx * fx) - mu1_sq
    s2 = _blur(fy * fy) - mu2_sq
    s12 = _blur(fx * fy) - mu12
    cs_den = s1 + s2 + _C2
    cs_map = (2.0 * s12 + _C2) / cs_den
    if not last:
        return cs_map.mean(axis=_MAP_AXES), (fx, fy, mu1, mu2, cs_map, cs_den, None, None)
    lum_den = mu1_sq + mu2_sq + _C1
    lum = (2.0 * mu12 + _C1) / lum_den
    factor = (lum * cs_map).mean(axis=_MAP_AXES)
    return factor, (fx, fy, mu1, mu2, cs_map, cs_den, lum, lum_den)


def _level_grad(cache, g_factor: np.ndarray) -> np.ndarray:
    """Gradient with respect to one level's ``fy`` frames, given each frame's
    factor gradient, through the maps and the blur's adjoint."""
    fx, fy, mu1, mu2, cs_map, cs_den, lum, lum_den = cache
    g_map = (g_factor / cs_map[0].size).reshape(-1, 1, 1, 1, 1)
    if lum is None:
        g_cs, g_mu2 = g_map, 0.0
    else:
        # lum = (2 mu1 mu2 + C1) / lum_den, so d lum / d mu2 = 2 (mu1 - mu2 lum) / lum_den
        g_cs = g_map * lum
        g_mu2 = g_map * cs_map * 2.0 * (mu1 - mu2 * lum) / lum_den
    # cs = (2 s12 + C2) / cs_den with cs_den = s1 + s2 + C2
    g_s12 = 2.0 * g_cs / cs_den
    g_s2 = -g_cs * cs_map / cs_den
    # s2 = blur(fy fy) - mu2^2 and s12 = blur(fx fy) - mu1 mu2
    g_mu2 = g_mu2 - 2.0 * mu2 * g_s2 - mu1 * g_s12
    return _blur_adjoint(g_mu2) + 2.0 * fy * _blur_adjoint(g_s2) + fx * _blur_adjoint(g_s12)


@dataclass
class ReconLoss:
    """Per-term breakdown; ``total``, the equally weighted sum, is the
    autodiff node."""

    l2: float
    ms_ssim: float
    gradient: float
    total: Tensor


def recon_loss(target: Tensor, output: Tensor) -> ReconLoss:
    """Reconstruction loss between a clip and its reconstruction, both
    (batch, channel, time, h, w); differentiable with respect to ``output``
    only. ``ms_ssim`` is the term 1 - MS-SSIM, and ``gradient`` the mean
    absolute difference of first-order pixel gradients, both axes pooled."""
    if target.shape != output.shape:
        raise ShapeError(f"loss shape mismatch: {target.shape} vs {output.shape}")
    if output.ndim != 5:
        raise ShapeError(f"recon_loss expects (batch, channel, time, h, w), got {output.shape}")
    if target.requires_grad:
        raise ValueError(
            "recon_loss differentiates the output only; the target must not require gradients"
        )
    b, c, t, h, w = output.shape
    scales = usable_scales(h, w)
    if scales == 0:
        raise ShapeError(f"frame ({h}, {w}) is smaller than the SSIM window {SSIM_WINDOW}")
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    record = output.requires_grad
    x, y = target.data, output.data

    diff = x - y
    l2 = (diff**2.0).mean()

    fx, fy = _to_frames(x), _to_frames(y)
    levels, terms, score = [], [], None
    for level in range(scales):
        factor, cache = _ssim_level(fx, fy, level == scales - 1)
        if level < scales - 1:
            fx, fy = _halve(fx), _halve(fy)
        term = np.where(factor > _EPS, factor, _EPS) ** float(weights[level])
        score = term if score is None else score * term
        terms.append(term)
        if record:
            levels.append((factor, cache))
    ssim_term = 1.0 - score.mean()

    dh = (x[:, :, :, 1:, :] - x[:, :, :, :-1, :]) - (y[:, :, :, 1:, :] - y[:, :, :, :-1, :])
    dw = (x[:, :, :, :, 1:] - x[:, :, :, :, :-1]) - (y[:, :, :, :, 1:] - y[:, :, :, :, :-1])
    inv_count = 1.0 / (dh.size + dw.size)
    grad_term = (np.abs(dh).sum() + np.abs(dw).sum()) * inv_count

    total = Tensor(l2 + ssim_term + grad_term)

    def backward():
        go = total.grad
        g = diff * (-2.0 / diff.size * go)
        # dh and dw hold target minus output differences
        g_dh = np.sign(dh) * (inv_count * go)
        g[:, :, :, 1:, :] -= g_dh
        g[:, :, :, :-1, :] += g_dh
        g_dw = np.sign(dw) * (inv_count * go)
        g[:, :, :, :, 1:] -= g_dw
        g[:, :, :, :, :-1] += g_dw
        # total = ... + 1 - mean over frames of prod over levels of term
        g_score = -go / (b * t)
        stacked = np.array(terms)
        g_frames = None
        for level in reversed(range(scales)):
            wl = float(weights[level])
            factor, cache = levels.pop()
            others = np.prod(np.delete(stacked, level, axis=0), axis=0)
            kept = factor > _EPS  # the clamp passes no gradient below its floor
            g_factor = g_score * others * wl * np.where(kept, factor, _EPS) ** (wl - 1.0) * kept
            g_level = _level_grad(cache, g_factor)
            if g_frames is not None:
                g_level += _halve_adjoint(g_frames, g_level.shape)
            g_frames = g_level
        # the channel mean spreads each frame's gradient evenly over the channels
        g += g_frames.reshape(b, t, 1, h, w).transpose(0, 2, 1, 3, 4) / c
        output._accumulate(g, owned=True)

    if record:
        total._record((output,), backward)
    return ReconLoss(float(l2), float(ssim_term), float(grad_term), total)
