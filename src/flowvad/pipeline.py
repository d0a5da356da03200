"""Windows over a video, the latent-to-flow bridge, and per-video scoring.

Every consumer of clip windows takes its starts from `clip_starts`: full
windows of clip_len frames, one every `stride` frames. Training uses them as
they are; scoring (`window_starts`) adds one clamped tail window so that every
frame is covered. `encode_windows` is the one bridge from frozen autoencoder
latents to density-model samples, shared by `collect_flow_samples` (step two)
and `score_video`, so both feed the flows identical features.

Each scored window yields a per-frame reconstruction error (patch max), a
per-slice static NLL (held across its tau span), and a per-frame dynamic NLL.
Frames covered by several windows take the mean. The normalized likelihood
term and the fused score are computed within the video.
"""

import numpy as np

from .errors import ConfigError
from .features import append_intensity, pool_features
from .scoring import (
    aggregate_windows,
    expand_static,
    fuse,
    nll_score,
    patch_max_error,
)
from .tensor import Tensor

__all__ = [
    "clip_starts",
    "window_starts",
    "encode_windows",
    "collect_flow_samples",
    "score_video",
]

RECON_BATCH = 4  # windows reconstructed per forward pass
FLOW_BATCH = 64  # feature slices per density-model pass


def clip_starts(total, clip_len, stride):
    """Origins of the full clip_len windows of a total-frame video, every
    stride frames; empty when the video is shorter than one window."""
    return list(range(0, total - clip_len + 1, stride))


def window_starts(total, clip_len, stride):
    """Window origins covering every frame for stride <= clip_len; the last is clamped."""
    if total < clip_len:
        raise ConfigError(f"video has {total} frames, need at least {clip_len}")
    starts = clip_starts(total, clip_len, stride)
    if starts[-1] != total - clip_len:
        starts.append(total - clip_len)
    return starts


def encode_windows(model, video, starts, clip_len, static=True, dynamic=True):
    """Encode the windows at `starts`, RECON_BATCH at a time, with a frozen
    model; the one bridge from latents to density-model samples.

    Yields (windows, latents, statics, dynamics) per group: windows is the
    (B, C, clip_len, H, W) input, latents the encoder's (static, dynamic)
    output, statics one (clip_len/tau, 3, h, w) sample array per window with
    channels (max, avg, intensity), and dynamics one (clip_len, 2, h, w)
    array per window with channels (max, avg). A stream that is not asked
    for, or a one-path model's dynamic stream, gives an empty list.
    """
    if not model.frozen:
        raise RuntimeError("flow inputs must come from a frozen autoencoder")
    tau = model.config.tau
    for lo in range(0, len(starts), RECON_BATCH):
        group = starts[lo : lo + RECON_BATCH]
        windows = np.concatenate([video[:, :, s : s + clip_len] for s in group], axis=0)
        xs, xd = model.encode(Tensor(windows))
        statics = []
        dynamics = []
        for k in range(len(group)):
            if static:
                pooled = pool_features(xs.data[k : k + 1])
                statics.append(append_intensity(pooled, windows[k : k + 1], tau))
            if dynamic and xd is not None:
                dynamics.append(pool_features(xd.data[k : k + 1]))
        yield windows, (xs, xd), statics, dynamics


def collect_flow_samples(model, video, config, need_static=True, need_dynamic=True):
    """Pool per-slice density-model samples of a frozen model from every
    training window.

    Windows step by clip_stride. Returns (static (S, 3, h, w) or None,
    dynamic (D, 2, h, w) or None).
    """
    total = video.shape[2]
    starts = clip_starts(total, config.clip_len, config.clip_stride)
    if not starts:
        raise ConfigError(f"video has {total} frames, need at least {config.clip_len}")
    statics = []
    dynamics = []
    for _, _, s, d in encode_windows(
        model, video, starts, config.clip_len, need_static, need_dynamic
    ):
        statics.extend(s)
        dynamics.extend(d)
    static = np.concatenate(statics, axis=0) if statics else None
    dynamic = np.concatenate(dynamics, axis=0) if dynamics else None
    return static, dynamic


def _batched_nll(stack, samples, batch):
    out = np.empty(samples.shape[0])
    for lo in range(0, samples.shape[0], batch):
        out[lo : lo + batch] = stack.nll_of(samples[lo : lo + batch])
    return out


def score_video(model, video, config, static_flow=None, dynamic_flow=None):
    """Score one video array (1, C, T, H, W) with a frozen model; returns
    per-frame series.

    Returns a dict of length-T arrays: recon, nll_static, nll_dynamic,
    nll_norm, fused. Flow stacks are optional; a missing stack contributes
    zeros (recon-only ablations).
    """
    total = video.shape[2]
    tau = config.tau
    starts = window_starts(total, config.clip_len, config.score_stride)

    recon_rows = []
    static_samples = []
    dynamic_samples = []
    for windows, (xs, xd), s, d in encode_windows(
        model, video, starts, config.clip_len,
        static_flow is not None, dynamic_flow is not None,
    ):
        out = model.decode(xs, xd).data
        for k in range(windows.shape[0]):
            recon_rows.append(
                patch_max_error(
                    windows[k : k + 1],
                    out[k : k + 1],
                    patch=config.patch_size,
                    stride=config.patch_stride,
                )
            )
        static_samples.extend(s)
        dynamic_samples.extend(d)

    recon = aggregate_windows(recon_rows, starts, total)

    if static_flow is not None:
        flat = np.concatenate(static_samples, axis=0)
        nll = _batched_nll(static_flow, flat, FLOW_BATCH)
        per_clip = config.clip_len // tau
        rows = [
            expand_static(nll[i * per_clip : (i + 1) * per_clip], config.clip_len, tau)
            for i in range(len(starts))
        ]
        nll_static = aggregate_windows(rows, starts, total)
    else:
        nll_static = np.zeros(total)

    if dynamic_flow is not None:
        flat = np.concatenate(dynamic_samples, axis=0)
        nll = _batched_nll(dynamic_flow, flat, FLOW_BATCH)
        rows = [
            nll[i * config.clip_len : (i + 1) * config.clip_len]
            for i in range(len(starts))
        ]
        nll_dynamic = aggregate_windows(rows, starts, total)
    else:
        nll_dynamic = np.zeros(total)

    if static_flow is None and dynamic_flow is None:
        nll_norm = np.zeros(total)
    else:
        nll_norm = nll_score(nll_static, nll_dynamic)
    fused = fuse(recon, nll_norm, config.lambda_l)
    return {
        "recon": recon,
        "nll_static": nll_static,
        "nll_dynamic": nll_dynamic,
        "nll_norm": nll_norm,
        "fused": fused,
    }
