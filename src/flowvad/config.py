"""Run configuration: one flat key = value file drives every command.

This module is the one place that decides which settings and frame sizes a
run accepts. `RunConfig.validate` checks the settings, `RunConfig.check_frames`
checks the frames of each loaded video against the same rules, and both
report every problem in one `ConfigError`. The models and loaders keep their
own input checks only as contracts for direct callers. Unknown keys are
rejected, and each command writes the fully resolved configuration next to
its outputs so a run can always be reproduced from its artifacts.
"""

import dataclasses

from .errors import ConfigError
from .losses import SSIM_WINDOW

__all__ = ["RunConfig", "parse_config", "serialize_config", "write_config",
           "apply_preset", "PRESETS"]


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
        problems = []
        if self.tau < 1:
            problems.append(f"tau must be >= 1, got {self.tau}")
        elif self.clip_len < 1 or self.clip_len % self.tau:
            problems.append(
                f"clip_len {self.clip_len} must be a positive multiple of tau {self.tau}"
            )
        if self.score_stride > self.clip_len:
            problems.append(
                f"score_stride {self.score_stride} above clip_len {self.clip_len} leaves gaps"
            )
        if (self.resize_h == 0) != (self.resize_w == 0):
            problems.append("resize_h and resize_w must be set together")
        elif self.resize_h > 0 and self.resize_w > 0:
            problems.extend(self._frame_problems(self.resize_h, self.resize_w, "resized"))
        if self.color not in ("gray", "rgb"):
            problems.append(f"color must be gray or rgb, got {self.color!r}")
        if self.flow_levels < 1 or self.flow_steps < 1:
            problems.append(
                f"flow_levels and flow_steps must be >= 1, got "
                f"{self.flow_levels} and {self.flow_steps}"
            )
        if self.use_dynamic_flow and not self.dynamic_path:
            problems.append("use_dynamic_flow requires dynamic_path")
        for name in ("itae_steps", "itae_batch", "nf_steps", "nf_batch",
                     "patch_size", "patch_stride", "score_stride", "clip_stride"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("itae_lr", "nf_lr", "lambda_l", "resize_h", "resize_w"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
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
    if field.type == "bool" or field.type is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        problems.append(f"{field.name}: expected true/false, got {text!r}")
        return None
    try:
        if field.type in ("int", int):
            return int(text)
        if field.type in ("float", float):
            return float(text)
    except ValueError:
        problems.append(f"{field.name}: cannot parse {text!r} as {field.type}")
        return None
    return text


def parse_config(text, overrides=None):
    """Parse key = value lines (# comments allowed) into a validated RunConfig."""
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
    if problems:
        raise ConfigError(problems)
    config = RunConfig(**kwargs)
    return config.validate()


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


def apply_preset(config, name):
    """Return a copy of config with the preset's fields replaced."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return dataclasses.replace(config, **PRESETS[name]).validate()
