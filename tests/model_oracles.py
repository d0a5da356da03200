"""Model oracles and shape and size arithmetic that only the tests use.

`graph_reconstruct` builds the autoencoder's forward as a per-layer graph
of `graph_ops` nodes, so `Tensor.backward` gives the gradients that
`TwoPathAutoencoder.reconstruct`'s hand-written backward must match.
`layer_shapes` states the paper's per-stage layer table from the stride
arithmetic alone, so one real forward pass can check every row at once.
`bits_per_dim` and `num_transforms` read a flow result and a flow stack, and
`named_grads` names a model's gradients, the slices of a flow stack's flat
one or an autoencoder's arrays. `invert`
and `invert_stack` undo a flow layer and a whole stack, written from the
layer equations, since no layer computes its own inverse.
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
from flowvad.flow import _CLAMP, ActNorm, AffineCoupling, InvertibleConv1x1, Squeeze
from flowvad.tensor import Tensor

from graph_ops import concat, conv3d, conv_transpose3d

__all__ = [
    "bits_per_dim", "graph_reconstruct", "invert", "invert_stack", "layer_shapes",
    "named_grads", "num_transforms",
]


def graph_reconstruct(model, x: Tensor) -> tuple[Tensor, dict[str, Tensor]]:
    """The reconstruction of ``x`` as a graph of one node per layer, slice,
    concat and the sigmoid: 56 nodes over the parameters for a two-path
    model, and the graph's leaves, name -> a ``Tensor`` over each of the
    model's parameter arrays. Values are those of ``model.reconstruct``;
    the graph's backward gives each leaf the gradient its hand-written
    backward must match."""
    leaves = {}

    def node(name, layer, h):
        w, b = (Tensor(layer.params[key], requires_grad=True) for key in ("weight", "bias"))
        leaves[f"{name}.weight"], leaves[f"{name}.bias"] = w, b
        if layer.transpose:
            return conv_transpose3d(
                h, w, layer.stride, layer.padding, layer.output_padding, b, layer.leaky
            )
        return conv3d(h, w, layer.stride, layer.padding, b, layer.leaky)

    cfg = model.config
    s = x[:, :, :: cfg.tau]
    if not cfg.dynamic_path:
        for i, layer in enumerate(model.static_convs):
            s = node(f"static{i + 1}", layer, s)
    else:
        d, dyn = x, []
        for i, layer in enumerate(model.dynamic_convs):
            d = node(f"dynamic{i + 1}", layer, d)
            dyn.append(d)
        for i, layer in enumerate(model.static_convs):
            s = node(f"static{i + 1}", layer, s)
            if i < 3:
                s = concat([s, node(f"lateral{i + 1}", model.laterals[i], dyn[i])], axis=1)
        lat = node("lateral4", model.laterals[3], dyn[3])
        s = node("fuse", model.fuse_proj, concat([s, lat], axis=1))
    for i, layer in enumerate(model.decoder):
        s = node(f"decode{i + 1}", layer, s)
    return s.sigmoid(), leaves


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


def named_grads(model) -> dict[str, np.ndarray]:
    """Each named parameter's gradient after a backward, from the model's
    ``take_gradients()``, cut into the parameters' shapes in
    ``named_parameters()`` order: a flow stack's one flat gradient is split,
    an autoencoder's arrays are named as they are (and leave its layers)."""
    named = model.named_parameters()
    grads = model.take_gradients()
    if len(grads) == 1 < len(named):
        stops = np.cumsum([p.size for p in named.values()])[:-1]
        grads = np.split(grads[0], stops)
    return {name: g.reshape(p.shape) for (name, p), g in zip(named.items(), grads, strict=True)}


def invert(layer, z: np.ndarray) -> np.ndarray:
    """The input that ``layer.forward`` maps to ``z``."""
    n, c, h, w = z.shape
    if isinstance(layer, ActNorm):
        logs, bias = layer.params["logs"], layer.params["bias"]
        return (z - bias.reshape(1, c, 1, 1)) / np.exp(logs).reshape(1, c, 1, 1)
    if isinstance(layer, InvertibleConv1x1):
        perm, l_full, u_full = layer._weight_np()
        cols = np.linalg.solve(perm @ l_full @ u_full, z.transpose(1, 0, 2, 3).reshape(c, -1))
        return cols.reshape(c, n, h, w).transpose(1, 0, 2, 3)
    if isinstance(layer, AffineCoupling):
        za, zb = z[:, : layer.ca], z[:, layer.ca :]
        out, _ = layer._net(za)  # the conditioner reads the half the layer passed through
        log_s = np.tanh(out[: layer.cb].transpose(3, 0, 1, 2)) * _CLAMP
        xb = (zb - out[layer.cb :].transpose(3, 0, 1, 2)) / np.exp(log_s)
        return np.concatenate([za, xb], axis=1)
    if isinstance(layer, Squeeze):  # a permutation: its adjoint is its inverse
        return layer.backward(None, z, None)
    raise TypeError(f"no inverse for {type(layer).__name__}")


def invert_stack(stack, z_parts: list[np.ndarray]) -> np.ndarray:
    """The input that ``stack.forward`` maps to the latent parts ``z_parts``:
    levels in reverse, each factored-out part joined back before its level."""
    parts = list(z_parts)
    h = parts.pop()
    for level in reversed(stack.levels):
        if level["keep"] < level["channels"]:
            h = np.concatenate([h, parts.pop()], axis=1)
        for _, layer in reversed(level["layers"]):
            h = invert(layer, h)
    return h
