"""Anomaly scoring and frame-level evaluation.

Reconstruction evidence is a patch-max statistic: the worst local region of a
frame decides its score, so small anomalies are not washed out by a global
mean. Likelihood evidence is the summed negative log-likelihood of the two
density models, minmax-normalized within each video so scales are comparable
across scenes. The fused score is recon + lambda * nll. Evaluation sweeps all
distinct thresholds to build a ROC curve, integrates it for AUC, and finds the
equal-error point by linear interpolation.
"""

import numpy as np

from .errors import ShapeError

__all__ = [
    "patch_max_error",
    "covering_starts",
    "minmax_normalize",
    "nll_score",
    "fuse",
    "aggregate_windows",
    "roc_curve",
    "roc_auc_eer",
]


def patch_max_error(target, output, patch=16, stride=4):
    """Per-frame max over sliding patches of mean absolute pixel error.

    target, output: (1, C, T, H, W). Patch positions step by `stride` and the
    final row/column position is always included so every pixel lies in some
    patch. Returns (T,).
    """
    a = np.asarray(target, dtype=np.float64)
    b = np.asarray(output, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"target {a.shape} and output {b.shape} differ")
    if a.ndim != 5:
        raise ShapeError(f"expected (1, c, t, h, w), got {a.shape}")
    _, _, t, h, w = a.shape
    if patch > h or patch > w:
        raise ShapeError(f"patch {patch} exceeds frame dims ({h}, {w})")
    err = np.abs(a - b)[0].mean(axis=0)  # (t, h, w) channel-mean error
    rows = covering_starts(h, patch, stride)
    cols = covering_starts(w, patch, stride)
    # integral image turns each patch mean into four lookups
    pad = np.zeros((t, h + 1, w + 1))
    np.cumsum(np.cumsum(err, axis=1), axis=2, out=pad[:, 1:, 1:])
    area = float(patch * patch)
    best = np.full(t, -np.inf)
    for i in rows:
        for j in cols:
            s = (
                pad[:, i + patch, j + patch]
                - pad[:, i, j + patch]
                - pad[:, i + patch, j]
                + pad[:, i, j]
            )
            np.maximum(best, s / area, out=best)
    return best


def covering_starts(size, width, stride):
    """Starts of width-wide windows over size >= width positions: one every
    stride, plus a last one clamped to size - width, so every position lies
    in some window. Places patch_max_error's patches and the scored clip
    windows."""
    starts = list(range(0, size - width + 1, stride))
    if starts[-1] != size - width:
        starts.append(size - width)
    return starts


def minmax_normalize(series):
    """Affine map of a series onto [0, 1]; a constant series maps to zeros."""
    vals = np.asarray(series, dtype=np.float64)
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        return np.zeros(vals.shape)
    return (vals - lo) / (hi - lo)


def nll_score(nll_static, nll_dynamic):
    """Combine per-frame NLL series into the normalized likelihood evidence.

    Both series are per-frame (repeat sampled static series first; a stream
    without a flow is all zeros). The sum is minmax-normalized within the clip.
    """
    total = np.asarray(nll_static, dtype=np.float64)
    dyn = np.asarray(nll_dynamic, dtype=np.float64)
    if dyn.shape != total.shape:
        raise ShapeError(f"series lengths differ: {total.shape} vs {dyn.shape}")
    return minmax_normalize(total + dyn)


def fuse(recon, nll, lambda_l):
    """Fused anomaly score: recon + lambda_l * nll."""
    r = np.asarray(recon, dtype=np.float64)
    l = np.asarray(nll, dtype=np.float64)
    if r.shape != l.shape:
        raise ShapeError(f"series lengths differ: {r.shape} vs {l.shape}")
    return r + lambda_l * l


def aggregate_windows(window_values, starts, num_frames):
    """Mean per frame across overlapping windows.

    window_values: list of 1-d arrays, one per window; starts: first absolute
    frame index of each window. Every frame must be covered by at least one
    window.
    """
    total = np.zeros(num_frames)
    count = np.zeros(num_frames)
    for vals, start in zip(window_values, starts):
        vals = np.asarray(vals, dtype=np.float64)
        if start < 0 or start + vals.size > num_frames:
            raise ShapeError(
                f"window [{start}, {start + vals.size}) outside 0..{num_frames}"
            )
        total[start : start + vals.size] += vals
        count[start : start + vals.size] += 1
    if np.any(count == 0):
        missing = int(np.flatnonzero(count == 0)[0])
        raise ShapeError(f"frame {missing} covered by no window")
    return total / count


def roc_curve(scores, labels):
    """ROC points over all distinct thresholds, from (0,0) to (1,1).

    labels: 1 = abnormal (positive), 0 = normal. Returns (fpr, tpr) arrays.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} must match, 1-d")
    pos = int(np.sum(y == 1))
    neg = int(np.sum(y == 0))
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes; got "
                         f"{pos} abnormal and {neg} normal frames")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tps = np.cumsum(y_sorted == 1)
    fps = np.cumsum(y_sorted == 0)
    # keep only the last index of each run of equal scores
    distinct = np.flatnonzero(np.diff(s_sorted) != 0)
    keep = np.concatenate([distinct, [s.size - 1]])
    tpr = np.concatenate([[0.0], tps[keep] / pos])
    fpr = np.concatenate([[0.0], fps[keep] / neg])
    return fpr, tpr


def roc_auc_eer(scores, labels):
    """AUC by trapezoidal integration and interpolated equal-error rate.

    Returns (auc, eer, (fpr, tpr)).
    """
    fpr, tpr = roc_curve(scores, labels)
    auc = float(np.trapezoid(tpr, fpr))
    fnr = 1.0 - tpr
    diff = fpr - fnr  # monotone nondecreasing along the curve
    k = int(np.searchsorted(diff >= 0, True))
    if diff[k] == 0:
        eer = float(fpr[k])
    else:
        a, b = diff[k - 1], diff[k]
        alpha = -a / (b - a)
        eer = float(fpr[k - 1] + alpha * (fpr[k] - fpr[k - 1]))
    return auc, eer, (fpr, tpr)
