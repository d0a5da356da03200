"""Synthetic surveillance scenes for end-to-end testing.

Normal dynamics: a few constant-intensity squares drift at constant velocity
across a dark canvas, wrapping around at the edges (torus rendering, so the
lit pixel count per object never changes at the border). Anomaly spans warp
the dynamics or appearance:

  speed     objects advance at twice their velocity (motion anomaly; each
            individual frame looks statistically normal)
  shape     squares render as thin bars of equal intensity (appearance
            anomaly; motion stays normal)
  reverse   velocity negated for the span (direction anomaly)

Frames are uint8 grayscale; labels mark every frame inside any span as 1.
Everything is deterministic given the seed.
"""

import dataclasses
import os

import numpy as np

from .config import bound_problems
from .errors import ConfigError
from .pnm import write_pnm

__all__ = ["SceneConfig", "AnomalySpan", "generate_scene", "write_scene", "parse_labels"]

MODES = ("speed", "shape", "reverse")


@dataclasses.dataclass
class SceneConfig:
    canvas: int = 64
    objects: int = 3
    size_range: tuple = (6, 12)
    speed_range: tuple = (1.0, 2.5)
    intensity_range: tuple = (0.45, 0.95)
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        problems = bound_problems([
            ("canvas", self.canvas, 16),
            ("objects", self.objects, 1),
            ("noise_sigma", self.noise_sigma, 0),
            ("seed", self.seed, 0),
        ])
        if not (0 < self.size_range[0] <= self.size_range[1] < self.canvas):
            problems.append(f"bad size_range {self.size_range}")
        if problems:
            raise ConfigError(problems)


@dataclasses.dataclass(frozen=True)
class AnomalySpan:
    start: int
    end: int  # exclusive
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown anomaly mode {self.mode!r}; choose from {MODES}")
        if not 0 <= self.start < self.end:
            raise ConfigError(f"bad span [{self.start}, {self.end})")


def _check_spans(spans, n_frames):
    for s in spans:
        if s.end > n_frames:
            raise ConfigError(f"span [{s.start}, {s.end}) exceeds {n_frames} frames")
    for a in spans:
        for b in spans:
            if a.mode != b.mode and a.start < b.end and b.start < a.end:
                raise ConfigError(
                    f"contradictory overlap: [{a.start}, {a.end}) {a.mode} vs "
                    f"[{b.start}, {b.end}) {b.mode}"
                )


def _draw(canvas, ys, xs, value):
    """Lit-pixel max-composite with torus wraparound."""
    canvas[np.ix_(ys, xs)] = np.maximum(canvas[np.ix_(ys, xs)], value)


def generate_scene(config, n_frames, spans=()):
    """Render the scene; returns (frames uint8 (n, H, W), labels int (n,))."""
    spans = [s if isinstance(s, AnomalySpan) else AnomalySpan(*s) for s in spans]
    _check_spans(spans, n_frames)
    rng = np.random.default_rng(config.seed)
    side = config.canvas

    n = config.objects
    sizes = rng.integers(config.size_range[0], config.size_range[1] + 1, size=n)
    intens = rng.uniform(*config.intensity_range, size=n)
    pos = rng.uniform(0, side, size=(n, 2))
    angles = rng.uniform(0, 2 * np.pi, size=n)
    speed = rng.uniform(*config.speed_range, size=n)
    vel = np.stack([np.sin(angles), np.cos(angles)], axis=1) * speed[:, None]

    frames = np.zeros((n_frames, side, side), dtype=np.uint8)
    labels = np.zeros(n_frames, dtype=int)
    for t in range(n_frames):
        active = {s.mode for s in spans if s.start <= t < s.end}
        labels[t] = 1 if active else 0
        canvas = np.zeros((side, side))
        for k in range(n):
            y, x = int(round(pos[k, 0])) % side, int(round(pos[k, 1])) % side
            s = int(sizes[k])
            if "shape" in active:
                h, w = max(2, s // 3), 3 * s  # thin bar, novel appearance
            else:
                h, w = s, s
            ys = (np.arange(h) + y) % side
            xs = (np.arange(w) + x) % side
            _draw(canvas, ys, xs, intens[k])
        if config.noise_sigma:
            canvas = canvas + rng.normal(0, config.noise_sigma, canvas.shape)
        frames[t] = np.clip(np.round(canvas * 255), 0, 255).astype(np.uint8)

        step = vel
        if "speed" in active:
            step = 2.0 * vel
        elif "reverse" in active:
            step = -vel
        pos = pos + step
    return frames, labels


def write_scene(out_dir, frames, labels):
    """Write frames as PGM files plus a labels.txt (one 0/1 per line)."""
    frame_dir = os.path.join(out_dir, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for i, frame in enumerate(frames):
        write_pnm(os.path.join(frame_dir, f"frame_{i:05d}.pgm"), frame)
    with open(os.path.join(out_dir, "labels.txt"), "w") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")
    return frame_dir


def parse_labels(text, path):
    """Per-frame 0/1 labels from the text of ``path``, one integer a line."""
    vals = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        labels = np.array([int(v) for v in vals])
    except ValueError:
        raise ConfigError(f"{path}: labels must be integers, one per line") from None
    if not np.all(np.isin(labels, (0, 1))):
        raise ConfigError(f"{path}: labels must be 0 or 1")
    return labels
