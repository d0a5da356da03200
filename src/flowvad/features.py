"""Array transforms from autoencoder latents to density-model inputs.

Each temporal slice of a latent volume becomes one independent 2-D sample:
channel-axis max and mean maps, concatenated in fixed (max, avg) order. The
static stream additionally carries a resized intensity channel taken from the
exact input frame that produced the slice. `pipeline.encode_windows` is the
one place that applies them to encoder output.
"""

import numpy as np

from .errors import ShapeError

__all__ = ["pool_features", "append_intensity", "box_resample"]


def pool_features(latent):
    """Reduce (1, C, T, H, W) to T samples of (2, H, W): channel max and mean.

    Returns an array of shape (T, 2, H, W) with channel order (max, avg).
    """
    arr = np.asarray(latent, dtype=np.float64)
    if arr.ndim != 5 or arr.shape[0] != 1:
        raise ShapeError(f"expected latent of shape (1, c, t, h, w), got {arr.shape}")
    vol = arr[0]  # (c, t, h, w)
    return np.stack([vol.max(axis=0), vol.mean(axis=0)], axis=1)


def box_resample(frame, out_h, out_w):
    """Area-average a (H, W) image down to (out_h, out_w) by integer factors."""
    h, w = frame.shape
    if h % out_h or w % out_w:
        raise ShapeError(
            f"resample target ({out_h}, {out_w}) must divide frame dims ({h}, {w})"
        )
    fh, fw = h // out_h, w // out_w
    return frame.reshape(out_h, fh, out_w, fw).mean(axis=(1, 3))


def append_intensity(static_maps, clip, tau):
    """Attach a third channel: the resized grayscale frame each slice saw.

    static_maps: (S, 2, h, w) pooled static samples.
    clip: (1, C, T, H, W) input video in [0, 1].
    Sample s corresponds to the input frame at absolute index s * tau.
    """
    maps = np.asarray(static_maps, dtype=np.float64)
    frames = np.asarray(clip, dtype=np.float64)
    if maps.ndim != 4 or maps.shape[1] != 2:
        raise ShapeError(f"expected pooled maps (s, 2, h, w), got {maps.shape}")
    if frames.ndim != 5 or frames.shape[0] != 1:
        raise ShapeError(f"expected clip (1, c, t, h, w), got {frames.shape}")
    s, _, h, w = maps.shape
    t = frames.shape[2]
    if (s - 1) * tau >= t:
        raise ShapeError(
            f"{s} static samples need frame index {(s - 1) * tau} "
            f"but clip has only {t} frames"
        )
    gray = frames[0].mean(axis=0)  # (t, H, W)
    intensity = np.stack([box_resample(gray[i * tau], h, w) for i in range(s)])
    return np.concatenate([maps, intensity[:, None]], axis=1)
