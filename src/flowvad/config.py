"""Run configuration: one flat key = value file drives every command.

This module is the one place that decides which settings and frame sizes a
run accepts. `parse_config` reads a file's text and the overrides laid over it
in one pass. `RunConfig.validate` checks the settings, every number against its
least value in `LEAST_VALUE`, and `RunConfig.check_frames` checks the frames of
each loaded video against the same rules; each reports every problem in one
`ConfigError`. The models and loaders keep their own input checks only as
contracts for direct callers. Unknown keys are rejected, and each command
writes the fully resolved configuration next to its outputs so a run can
always be reproduced from its artifacts.
"""

import dataclasses
import math

from .errors import ConfigError
from .losses import SSIM_WINDOW

__all__ = ["RunConfig", "parse_config", "serialize_config", "write_config",
           "PRESETS", "LEAST_VALUE", "bound_problems"]


def bound_problems(named_values):
    """One problem for each (name, value, least) triple whose value is not a
    finite number >= least: the one rule for every number a user sets."""
    problems = []
    for name, value, least in named_values:
        if not least <= value < math.inf:
            rule = "a finite number >=" if isinstance(value, float) else ">="
            problems.append(f"{name} must be {rule} {least}, got {value!r}")
    return problems


# The least value of every numeric RunConfig field (resize 0 keeps the native size).
LEAST_VALUE = {
    "clip_len": 1, "tau": 1, "clip_stride": 1, "resize_h": 0, "resize_w": 0,
    "flow_levels": 1, "flow_steps": 1, "flow_hidden": 1,
    "itae_steps": 1, "itae_batch": 1, "itae_lr": 0, "nf_steps": 1, "nf_batch": 1, "nf_lr": 0,
    "seed": 0, "patch_size": 1, "patch_stride": 1, "lambda_l": 0, "score_stride": 1,
}


@dataclasses.dataclass
class RunConfig:
    # data
    data_path: str = ""
    label_path: str = ""
    out_dir: str = "runs/out"
    clip_len: int = 8
    tau: int = 4
    clip_stride: int = 4
    resize_h: int = 0  # 0 keeps the native frame size
    resize_w: int = 0
    color: str = "gray"
    # model
    dynamic_path: bool = True
    use_static_flow: bool = True
    use_dynamic_flow: bool = True
    flow_levels: int = 2
    flow_steps: int = 4
    flow_hidden: int = 32
    # training
    itae_steps: int = 150
    itae_batch: int = 2
    itae_lr: float = 1e-3
    nf_steps: int = 60
    nf_batch: int = 8
    nf_lr: float = 5e-4
    seed: int = 0
    # scoring
    patch_size: int = 16
    patch_stride: int = 4
    lambda_l: float = 0.3
    score_stride: int = 1

    def validate(self):
        problems = bound_problems(
            (name, getattr(self, name), least) for name, least in LEAST_VALUE.items()
        )
        if self.tau >= 1 and self.clip_len % self.tau:
            problems.append(
                f"clip_len {self.clip_len} must be a positive multiple of tau {self.tau}"
            )
        if self.score_stride > self.clip_len:
            problems.append(
                f"score_stride {self.score_stride} above clip_len {self.clip_len} leaves gaps"
            )
        if self.patch_stride > self.patch_size:
            problems.append(
                f"patch_stride {self.patch_stride} above patch_size {self.patch_size} leaves gaps"
            )
        if (self.resize_h == 0) != (self.resize_w == 0):
            problems.append("resize_h and resize_w must be set together")
        elif self.resize_h > 0 and self.resize_w > 0:
            problems.extend(self._frame_problems(self.resize_h, self.resize_w, "resized"))
        if self.color not in ("gray", "rgb"):
            problems.append(f"color must be gray or rgb, got {self.color!r}")
        if self.use_dynamic_flow and not self.dynamic_path:
            problems.append("use_dynamic_flow requires dynamic_path")
        if problems:
            raise ConfigError(problems)
        return self

    def _frame_problems(self, height, width, kind):
        # the encoder shrinks each side by 4 and every flow level squeezes 2x2 blocks
        grain = 4 * 2**self.flow_levels if self.use_static_flow or self.use_dynamic_flow else 4
        problems = []
        if height % grain or width % grain:
            problems.append(f"{kind} frames {height}x{width}: height and width must be "
                            f"multiples of {grain} (4, times 2 per flow level if a flow is on)")
        if min(height, width) < SSIM_WINDOW:
            problems.append(f"{kind} frames {height}x{width} are smaller than the "
                            f"{SSIM_WINDOW}-pixel MS-SSIM window of the training loss")
        if self.patch_size > min(height, width):
            problems.append(f"patch_size {self.patch_size} exceeds {kind} frames {height}x{width}")
        return problems

    def check_frames(self, source, video):
        """Refuse a loaded (1, C, T, H, W) video this run cannot take: fewer than
        clip_len frames, or frames off the grain or smaller than the MS-SSIM
        window or patch_size."""
        problems = self._frame_problems(*video.shape[-2:], "loaded")
        if video.shape[2] < self.clip_len:
            problems.append(f"video has {video.shape[2]} frames, need at least {self.clip_len}")
        if problems:
            raise ConfigError([f"{source}: {p}" for p in problems])

    @property
    def in_channels(self):
        return 1 if self.color == "gray" else 3

    @property
    def resize(self):
        return (self.resize_h, self.resize_w) if self.resize_h else None


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(field, raw, problems):
    text = raw.strip()
    if field.type is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        problems.append(f"{field.name}: expected true/false, got {text!r}")
        return None
    try:
        return field.type(text)
    except ValueError:
        problems.append(f"{field.name}: cannot parse {text!r} as {field.type.__name__}")
        return None


def parse_config(text, overrides=None):
    """Parse key = value lines (# comments allowed), with ``overrides`` winning
    over the text, into a validated RunConfig."""
    problems = []
    kwargs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            problems.append(f"line {lineno}: expected key = value, got {body!r}")
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELDS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in kwargs:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        value = _parse_value(_FIELDS[key], raw, problems)
        if value is not None:
            kwargs[key] = value
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            problems.append(f"override: unknown key {key!r}")
            continue
        value = (
            raw if not isinstance(raw, str) else _parse_value(_FIELDS[key], raw, problems)
        )
        if value is not None:
            kwargs[key] = value
    if problems:  # the rules that join two settings wait until every value parses
        raise ConfigError(problems + bound_problems(
            (key, value, LEAST_VALUE[key]) for key, value in kwargs.items() if key in LEAST_VALUE
        ))
    return RunConfig(**kwargs).validate()


def serialize_config(config):
    lines = [
        f"{f.name} = {_format(getattr(config, f.name))}"
        for f in dataclasses.fields(RunConfig)
    ]
    return "\n".join(lines) + "\n"


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(path, config):
    with open(path, "w") as fh:
        fh.write(serialize_config(config))


# Training-scale presets: sparse scenes favor small batches and a gentle
# autoencoder rate; busy scenes take bigger batches and a faster rate; the
# desk preset is the self-contained synthetic 64x64 scale.
PRESETS = {
    "small-scene": {"itae_batch": 2, "itae_lr": 1e-3, "nf_batch": 8, "nf_lr": 5e-4},
    "large-scene": {"itae_batch": 8, "itae_lr": 1e-2, "nf_batch": 8, "nf_lr": 1e-4},
    "desk": {
        "clip_len": 8,
        "tau": 4,
        "resize_h": 64,
        "resize_w": 64,
        "color": "gray",
        "itae_batch": 2,
        "itae_lr": 1e-3,
        "nf_batch": 8,
        "nf_lr": 5e-4,
    },
}
