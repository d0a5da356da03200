"""Clip ingestion: frame folders or packed tensor files to model-ready video.

`load_video` reads a whole source as one (1, C, T, H, W) float64 array in
[0, 1]. Frame folders hold binary PGM/PPM images in lexicographic order; a
packed tensor source is a single file holding the whole video. Optional
integer-factor area resizing and gray/rgb conversion happen at load time.
`iter_clips` yields the training windows of a source as views into that
array, at the starts given by `pipeline.clip_starts`.
"""

import dataclasses
import os

import numpy as np

from .errors import ConfigError, ShapeError
from .features import box_resample
from .pipeline import clip_starts
from .pnm import read_pnm
from .tensor_io import load_tensor

__all__ = ["ClipSpec", "load_video", "iter_clips"]

_FRAME_EXTS = (".pgm", ".ppm")


@dataclasses.dataclass
class ClipSpec:
    """Where and how to read clips; `RunConfig.validate` checks the settings."""

    source: str
    clip_len: int
    tau: int
    stride: int = 1
    resize: tuple = None  # (h, w) target or None
    color: str = "gray"


def _frame_to_unit(img, color):
    """uint8 (h, w) or (h, w, 3) to float64 (c, h, w) in [0, 1]."""
    arr = img.astype(np.float64) / 255.0
    if arr.ndim == 2:
        chans = arr[None] if color == "gray" else np.repeat(arr[None], 3, axis=0)
    else:
        planes = np.ascontiguousarray(arr.transpose(2, 0, 1))
        chans = planes.mean(axis=0, keepdims=True) if color == "gray" else planes
    return chans


def _resize_frames(video, target):
    if target is None:
        return video
    h, w = target
    c = video.shape[1]
    out = np.empty(video.shape[:3] + (h, w))
    for t in range(video.shape[2]):
        for ch in range(c):
            out[0, ch, t] = box_resample(video[0, ch, t], h, w)
    return out


def load_video(spec):
    """Read the whole source as one (1, C, T, H, W) array in [0, 1]."""
    src = spec.source
    if os.path.isdir(src):
        names = sorted(
            n for n in os.listdir(src) if n.lower().endswith(_FRAME_EXTS)
        )
        if not names:
            raise ConfigError(f"no PGM/PPM frames found in {src}")
        frames = [
            _frame_to_unit(read_pnm(os.path.join(src, name)), spec.color)
            for name in names
        ]
        sizes = sorted({f.shape[1:] for f in frames})
        if len(sizes) > 1:
            raise ShapeError(f"{src}: frames differ in size: {sizes}")
        video = np.stack(frames, axis=1)[None]  # (1, c, t, h, w)
    else:
        arr = load_tensor(src)
        if arr.shape[0] != 1:
            raise ShapeError(f"{src}: packed video must have batch dim 1, got {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"{src}: packed video has a zero-length dim: {arr.shape}")
        if arr.shape[1] not in (1, 3):
            raise ShapeError(f"{src}: packed video must have 1 or 3 channels, got {arr.shape}")
        lo, hi = arr.min(), arr.max()
        if lo < 0.0 or hi > 1.0:
            raise ShapeError(f"{src}: pixel values outside [0, 1]: min {lo}, max {hi}")
        video = arr
        if spec.color == "gray" and video.shape[1] == 3:
            video = video.mean(axis=1, keepdims=True)
        elif spec.color == "rgb" and video.shape[1] == 1:
            video = np.repeat(video, 3, axis=1)
    try:
        return _resize_frames(video, spec.resize)
    except ShapeError as exc:
        raise ShapeError(f"{src}: {exc}") from None


def iter_clips(spec, video=None):
    """Yield the full clip_len windows of the source, in order, as
    (1, C, clip_len, H, W) views into the loaded video.

    `video` is the source as `load_video(spec)` returns it, read here when
    None. Window starts step by spec.stride; a source shorter than clip_len
    yields nothing.
    """
    if video is None:
        video = load_video(spec)
    for start in clip_starts(video.shape[2], spec.clip_len, spec.stride):
        yield video[:, :, start : start + spec.clip_len]
