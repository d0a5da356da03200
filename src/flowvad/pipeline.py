"""Windows over a video, the latent-to-flow bridge, and per-video scoring.

Training takes its clip windows from `clip_starts`: full windows of clip_len
frames, one every `stride` frames. Scoring (`window_starts`) adds one clamped
tail window so that every frame is covered, by `scoring.covering_starts`,
the rule that also places patch_max_error's patches. `encode_windows` is
the one bridge from frozen autoencoder latents to density-model samples,
shared by `collect_flow_samples` (step two) and `score_video`, so both feed
the flows identical features. It always pools
both density streams listed in `STREAMS`; only a one-path model has no
dynamic samples. Windows go through the autoencoder one at a time: every
conv already runs one GEMM per sample, so a batch of windows would give the
same bits and only hold more of them in memory at once.

Each scored window yields a per-frame reconstruction error (patch max) and,
per stream, a per-sample NLL held across the frames the sample stands for
(tau for a static slice, one for a dynamic slice). Frames covered by several
windows take the mean. The normalized likelihood term and the fused score are
computed within the video.
"""

import numpy as np

from .errors import ConfigError
from .features import append_intensity, pool_features
from .scoring import aggregate_windows, covering_starts, fuse, nll_score, patch_max_error

__all__ = [
    "STREAMS",
    "clip_starts",
    "window_starts",
    "encode_windows",
    "collect_flow_samples",
    "score_video",
]

FLOW_BATCH = 64  # feature slices per density-model pass

# The density streams, in the order encode_windows and collect_flow_samples
# give them, with the feature channels of one sample: (max, avg, intensity)
# for a static slice, (max, avg) for a dynamic one.
STREAMS = {"static": 3, "dynamic": 2}


def clip_starts(total, clip_len, stride):
    """Origins of the full clip_len windows of a total-frame video, every
    stride frames; empty when the video is shorter than one window."""
    return list(range(0, total - clip_len + 1, stride))


def window_starts(total, clip_len, stride):
    """Window origins covering every frame for stride <= clip_len; the last is clamped."""
    if total < clip_len:
        raise ConfigError(f"video has {total} frames, need at least {clip_len}")
    return covering_starts(total, clip_len, stride)


def encode_windows(model, video, starts, clip_len):
    """Encode the windows at `starts`, one at a time, with a frozen model;
    the one bridge from latents to density-model samples.

    Yields (window, latents, static, dynamic) per start: window is the
    (1, C, clip_len, H, W) view into the video, latents the encoder's
    (static, dynamic) output, static the window's (clip_len/tau, 3, h, w)
    samples with channels (max, avg, intensity), and dynamic its
    (clip_len, 2, h, w) samples with channels (max, avg). Both streams are
    always pooled; a one-path model's dynamic is None.
    """
    if not model.frozen:
        raise RuntimeError("flow inputs must come from a frozen autoencoder")
    tau = model.config.tau
    for start in starts:
        window = video[:, :, start : start + clip_len]
        xs, xd = model.encode(window)
        static = append_intensity(pool_features(xs), window, tau)
        dynamic = None if xd is None else pool_features(xd)
        yield window, (xs, xd), static, dynamic


def collect_flow_samples(model, video, config):
    """Pool per-slice density-model samples of a frozen model from every
    training window.

    Windows step by clip_stride. Returns (static (S, 3, h, w), dynamic
    (D, 2, h, w)); the static array is never None, the dynamic one is None
    for a one-path model.
    """
    total = video.shape[2]
    starts = clip_starts(total, config.clip_len, config.clip_stride)
    if not starts:
        raise ConfigError(f"video has {total} frames, need at least {config.clip_len}")
    statics = []
    dynamics = []
    for _, _, static, dynamic in encode_windows(model, video, starts, config.clip_len):
        statics.append(static)
        if dynamic is not None:
            dynamics.append(dynamic)
    dynamic = np.concatenate(dynamics, axis=0) if dynamics else None
    return np.concatenate(statics, axis=0), dynamic


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
    starts = window_starts(total, config.clip_len, config.score_stride)
    flows = {"static": static_flow, "dynamic": dynamic_flow}

    recon_rows = []
    samples = {name: [] for name in STREAMS}
    for window, (xs, xd), static, dynamic in encode_windows(
        model, video, starts, config.clip_len
    ):
        out = model.decode(xs, xd)
        recon_rows.append(
            patch_max_error(window, out, patch=config.patch_size, stride=config.patch_stride)
        )
        samples["static"].append(static)
        if dynamic is not None:
            samples["dynamic"].append(dynamic)

    series = {"recon": aggregate_windows(recon_rows, starts, total)}
    for name, flow in flows.items():
        if flow is None:
            series[f"nll_{name}"] = np.zeros(total)
            continue
        nll = _batched_nll(flow, np.concatenate(samples[name], axis=0), FLOW_BATCH)
        # A window's samples split its clip_len frames evenly: each holds
        # for tau frames (static) or one frame (dynamic).
        rows = [np.repeat(r, config.clip_len // r.size) for r in np.split(nll, len(starts))]
        series[f"nll_{name}"] = aggregate_windows(rows, starts, total)

    series["nll_norm"] = nll_score(series["nll_static"], series["nll_dynamic"])
    series["fused"] = fuse(series["recon"], series["nll_norm"], config.lambda_l)
    return series
