"""Reconstruction losses: mean squared error, multi-scale SSIM, gradient difference.

The three terms are combined with equal weight. MS-SSIM runs per frame on
the channel-mean (luminance) image with the standard 5-scale weights; when
the frame is too small for five halvings the scale count is reduced and the
remaining weights are renormalized to sum to one, with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, conv3d

__all__ = ["ReconLoss", "recon_loss", "ms_ssim", "usable_scales", "MS_SSIM_WEIGHTS"]

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_C1 = 0.01**2  # (k1 * data_range)^2 with data_range 1
_C2 = 0.03**2
_EPS = 1e-6

_window_cache: dict[tuple[int, float], np.ndarray] = {}


def _gaussian_1d(window: int, sigma: float) -> np.ndarray:
    key = (window, sigma)
    if key not in _window_cache:
        coords = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
        g = np.exp(-(coords**2) / (2.0 * sigma**2))
        _window_cache[key] = g / g.sum()
    return _window_cache[key]


def _blur(x: Tensor, window: int, sigma: float) -> Tensor:
    """Separable valid-mode gaussian filter over the last two axes."""
    g = _gaussian_1d(window, sigma)
    kw = Tensor(g.reshape(1, 1, 1, 1, window))
    kh = Tensor(g.reshape(1, 1, 1, window, 1))
    return conv3d(conv3d(x, kw), kh)


def _halve(x: Tensor) -> Tensor:
    pool = Tensor(np.full((1, 1, 1, 2, 2), 0.25))
    return conv3d(x, pool, stride=(1, 2, 2))


def usable_scales(height: int, width: int, window: int = 11, max_scales: int = 5) -> int:
    """Largest scale count such that the coarsest level still fits the window."""
    side = min(height, width)
    scales = 0
    while scales < max_scales and side >= window:
        scales += 1
        side //= 2
    return scales


def _to_frames(x: Tensor) -> Tensor:
    """(B, C, T, H, W) -> (B*T, 1, 1, H, W) luminance frames."""
    b, _, t, h, w = x.shape
    gray = x.mean(axis=1, keepdims=True)
    return gray.transpose((0, 2, 1, 3, 4)).reshape(b * t, 1, 1, h, w)


def ms_ssim(x: Tensor, y: Tensor, window: int = 11, sigma: float = 1.5) -> Tensor:
    """Mean multi-scale SSIM over all frames of two clips; scalar in (0, 1]."""
    if x.shape != y.shape:
        raise ShapeError(f"ms_ssim shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 5:
        raise ShapeError(f"ms_ssim expects (batch, channel, time, h, w), got {x.shape}")
    h, w = x.shape[3], x.shape[4]
    scales = usable_scales(h, w, window)
    if scales == 0:
        raise ShapeError(f"frame ({h}, {w}) is smaller than the SSIM window {window}")
    if scales < len(MS_SSIM_WEIGHTS):
        warnings.warn(
            f"frame ({h}, {w}) supports only {scales} of {len(MS_SSIM_WEIGHTS)} "
            "MS-SSIM scales; weights renormalized",
            stacklevel=2,
        )
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()

    fx, fy = _to_frames(x), _to_frames(y)
    reduce_axes = (1, 2, 3, 4)
    score = None
    for level in range(scales):
        mu1 = _blur(fx, window, sigma)
        mu2 = _blur(fy, window, sigma)
        mu1_sq, mu2_sq, mu12 = mu1 * mu1, mu2 * mu2, mu1 * mu2
        s1 = _blur(fx * fx, window, sigma) - mu1_sq
        s2 = _blur(fy * fy, window, sigma) - mu2_sq
        s12 = _blur(fx * fy, window, sigma) - mu12
        cs_map = (2.0 * s12 + _C2) / (s1 + s2 + _C2)
        if level < scales - 1:
            factor = cs_map.mean(axis=reduce_axes)
            fx, fy = _halve(fx), _halve(fy)
        else:
            lum = (2.0 * mu12 + _C1) / (mu1_sq + mu2_sq + _C1)
            factor = (lum * cs_map).mean(axis=reduce_axes)
        term = factor.clamp_min(_EPS) ** float(weights[level])
        score = term if score is None else score * term
    return score.mean()


def _axis_diffs(x: Tensor) -> tuple[Tensor, Tensor]:
    dh = x[:, :, :, 1:, :] - x[:, :, :, :-1, :]
    dw = x[:, :, :, :, 1:] - x[:, :, :, :, :-1]
    return dh, dw


def gradient_difference(x: Tensor, y: Tensor) -> Tensor:
    """Mean absolute difference of first-order pixel gradients, both axes pooled."""
    if x.shape != y.shape:
        raise ShapeError(f"gradient term shape mismatch: {x.shape} vs {y.shape}")
    xh, xw = _axis_diffs(x)
    yh, yw = _axis_diffs(y)
    num = (xh - yh).abs().sum() + (xw - yw).abs().sum()
    return num * (1.0 / (xh.size + xw.size))


@dataclass
class ReconLoss:
    """Per-term breakdown; ``total`` is the equally weighted sum."""

    l2: Tensor
    ms_ssim: Tensor
    gradient: Tensor
    total: Tensor


def recon_loss(target: Tensor, output: Tensor, window: int = 11) -> ReconLoss:
    """Reconstruction loss between a clip and its reconstruction."""
    if target.shape != output.shape:
        raise ShapeError(f"loss shape mismatch: {target.shape} vs {output.shape}")
    l2 = ((target - output) ** 2).mean()
    ssim_term = 1.0 - ms_ssim(target, output, window=window)
    grad_term = gradient_difference(target, output)
    total = l2 + ssim_term + grad_term
    return ReconLoss(l2=l2, ms_ssim=ssim_term, gradient=grad_term, total=total)
