"""Shape and size arithmetic that only the tests use.

`layer_shapes` states the paper's per-stage layer table from the stride
arithmetic alone, so one real forward pass can check every row at once.
`bits_per_dim` and `num_transforms` read a flow result and a flow stack.
"""

from __future__ import annotations

import math

import numpy as np

from flowvad.autoencoder import _DYNAMIC_GEOM, _STATIC_GEOM, AutoencoderConfig, _decoder_geom
from flowvad.errors import ShapeError

__all__ = ["bits_per_dim", "layer_shapes", "num_transforms"]


def layer_shapes(
    config: AutoencoderConfig, time: int, height: int, width: int
) -> dict[str, tuple[int, ...]]:
    """Per-stage output shapes (channel, time, h, w) from the stride arithmetic.

    Uses the same floor((d + 2p - k)/s) + 1 rule the convolutions apply, so a
    single real forward pass validates every row at once.
    """

    def down(dims, geom):
        k, s, p = geom
        return tuple((d + 2 * pi - ki) // si + 1 for d, ki, si, pi in zip(dims, k, s, p))

    def up(dims, geom):
        k, s, p, op = geom
        return tuple(
            (d - 1) * si - 2 * pi + ki + oi
            for d, si, pi, ki, oi in zip(dims, s, p, k, op)
        )

    if time % config.tau:
        raise ShapeError(f"clip length {time} not divisible by tau={config.tau}")
    shapes: dict[str, tuple[int, ...]] = {}
    sdims = ((time - 1) // config.tau + 1, height, width)
    ddims = (time, height, width)
    for i in range(4):
        sdims = down(sdims, _STATIC_GEOM[i])
        shapes[f"static{i + 1}"] = (config.static_channels[i], *sdims)
        if config.dynamic_path:
            ddims = down(ddims, _DYNAMIC_GEOM[i])
            shapes[f"dynamic{i + 1}"] = (config.dynamic_channels[i], *ddims)
    out_ch = [
        config.static_channels[3],
        config.static_channels[1],
        config.static_channels[0],
        config.in_channels,
    ]
    udims = sdims
    dec_geom = _decoder_geom(config.tau)
    for i in range(4):
        udims = up(udims, dec_geom[i])
        shapes[f"decode{i + 1}"] = (out_ch[i], *udims)
    return shapes


def bits_per_dim(result) -> np.ndarray:
    """Per-sample NLL of a `FlowResult` in bits per input dimension."""
    return result.nll.data / (result.dims * math.log(2.0))


def num_transforms(stack) -> int:
    """Layers of a `FlowStack`, counting each level's split as one."""
    return sum(len(lv["layers"]) + (lv["keep"] < lv["channels"]) for lv in stack.levels)
