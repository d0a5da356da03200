"""Model oracles and shape and size arithmetic that only the tests use.

`graph_reconstruct` builds the autoencoder's forward as a per-layer graph
of `graph_ops` nodes, so `Tensor.backward` gives the gradients that
`TwoPathAutoencoder.reconstruct`'s hand-written backward must match.
`layer_shapes` states the paper's per-stage layer table from the stride
arithmetic alone, so one real forward pass can check every row at once.
`bits_per_dim` and `num_transforms` read a flow result and a flow stack.
"""

from __future__ import annotations

import math

import numpy as np

from flowvad.autoencoder import (
    _DYNAMIC_CHANNELS,
    _DYNAMIC_GEOM,
    _STATIC_CHANNELS,
    _STATIC_GEOM,
    AutoencoderConfig,
    _decoder_geom,
)
from flowvad.errors import ShapeError
from flowvad.tensor import Tensor

from graph_ops import concat, conv3d, conv_transpose3d

__all__ = ["bits_per_dim", "graph_reconstruct", "layer_shapes", "num_transforms"]


def _layer_node(layer, h: Tensor) -> Tensor:
    """One `Conv3dLayer` as a graph node over its own parameters."""
    if layer.transpose:
        return conv_transpose3d(
            h, layer.weight, layer.stride, layer.padding, layer.output_padding,
            layer.bias, layer.leaky,
        )
    return conv3d(h, layer.weight, layer.stride, layer.padding, layer.bias, layer.leaky)


def graph_reconstruct(model, x: Tensor) -> Tensor:
    """The reconstruction of ``x`` as a graph of one node per layer, slice,
    concat and the sigmoid: 56 nodes over the parameters for a two-path
    model. Values are those of ``model.reconstruct``; the graph's backward
    is the reference for its gradients."""
    cfg = model.config
    s = x[:, :, :: cfg.tau]
    if not cfg.dynamic_path:
        for layer in model.static_convs:
            s = _layer_node(layer, s)
    else:
        d, dyn = x, []
        for layer in model.dynamic_convs:
            d = _layer_node(layer, d)
            dyn.append(d)
        for i, layer in enumerate(model.static_convs):
            s = _layer_node(layer, s)
            if i < 3:
                s = concat([s, _layer_node(model.laterals[i], dyn[i])], axis=1)
        lat = _layer_node(model.laterals[3], dyn[3])
        s = _layer_node(model.fuse_proj, concat([s, lat], axis=1))
    for layer in model.decoder:
        s = _layer_node(layer, s)
    return s.sigmoid()


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
        shapes[f"static{i + 1}"] = (_STATIC_CHANNELS[i], *sdims)
        if config.dynamic_path:
            ddims = down(ddims, _DYNAMIC_GEOM[i])
            shapes[f"dynamic{i + 1}"] = (_DYNAMIC_CHANNELS[i], *ddims)
    out_ch = [_STATIC_CHANNELS[3], _STATIC_CHANNELS[1], _STATIC_CHANNELS[0], config.in_channels]
    udims = sdims
    dec_geom = _decoder_geom(config.tau)
    for i in range(4):
        udims = up(udims, dec_geom[i])
        shapes[f"decode{i + 1}"] = (out_ch[i], *udims)
    return shapes


def bits_per_dim(result) -> np.ndarray:
    """Per-sample NLL of a `FlowResult` in bits per input dimension; the
    factored-out parts together hold every input dimension."""
    dims = sum(math.prod(z.shape[1:]) for z in result.z_parts)
    return result.nll.data / (dims * math.log(2.0))


def num_transforms(stack) -> int:
    """Layers of a `FlowStack`, counting each level's split as one."""
    return sum(len(lv["layers"]) + (lv["keep"] < lv["channels"]) for lv in stack.levels)
