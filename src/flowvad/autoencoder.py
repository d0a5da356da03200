"""Two-path video autoencoder.

A static path encodes every tau-th frame (appearance); a dynamic path
encodes the full frame sequence (motion). Lateral convolutions align the
dynamic features to the static temporal resolution after the first three
encoder stages and feed them into the static path by channel concatenation.
A single decoder reconstructs the full clip from the fused latents; there
are no encoder-to-decoder skip connections, so everything the decoder uses
must pass through the bottleneck.

All tensors are (batch, channel, time, height, width). Spatial dims shrink
by 4x in the encoder; the static temporal length is T / tau throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import assign_state
from .errors import ShapeError
from .tensor import Tensor, concat, conv3d, conv_transpose3d

__all__ = ["AutoencoderConfig", "TwoPathAutoencoder", "Conv3dLayer"]


@dataclass(frozen=True)
class AutoencoderConfig:
    """Topology knobs; channel widths are fixed by the architecture."""

    in_channels: int = 1
    tau: int = 4
    dynamic_path: bool = True
    leaky_slope: float = 0.2
    static_channels: tuple[int, int, int, int] = (96, 128, 256, 256)
    dynamic_channels: tuple[int, int, int, int] = (12, 16, 32, 32)

    def __post_init__(self):
        if self.tau < 1:
            raise ShapeError(f"tau must be >= 1, got {self.tau}")
        if self.in_channels not in (1, 3):
            raise ShapeError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ShapeError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")


# kernel, stride, padding per encoder stage; temporal extent differs between paths
_STATIC_GEOM = [
    ((1, 3, 3), (1, 2, 2), (0, 1, 1)),
    ((1, 3, 3), (1, 2, 2), (0, 1, 1)),
    ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
    ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
]
_DYNAMIC_GEOM = [
    ((5, 3, 3), (1, 2, 2), (2, 1, 1)),
    ((3, 3, 3), (1, 2, 2), (1, 1, 1)),
    ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
    ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
]
def _decoder_geom(tau: int) -> list[tuple]:
    """Kernel/stride/padding/output_padding for the four decoder stages.

    The middle two stages upsample: spatially by 2 each (restoring the 4x
    encoder reduction) and temporally by factors that multiply to tau. With
    kernel 3 and padding 1, output_padding = stride - 1 makes each stage
    scale its input dims exactly by the stride.
    """
    t2 = 2 if tau % 2 == 0 else tau
    t3 = tau // t2
    strides = [(1, 1, 1), (t2, 2, 2), (t3, 2, 2), (1, 1, 1)]
    return [((3, 3, 3), s, (1, 1, 1), tuple(x - 1 for x in s)) for s in strides]


class Conv3dLayer:
    """One convolution (optionally transposed) with bias and, when built with
    ``leaky=True``, a leaky ReLU of ``slope``.

    The conv op adds the bias and applies the activation to each block of
    its output in place (see :func:`flowvad.tensor.conv3d`), so a call
    returns one node and allocates one output array. ``slope`` also sets the
    He-style initial weight scale, with or without the activation.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        cin: int,
        cout: int,
        kernel,
        stride,
        padding,
        output_padding=(0, 0, 0),
        transpose: bool = False,
        slope: float = 0.2,
        leaky: bool = False,
    ):
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.output_padding = tuple(output_padding)
        self.transpose = transpose
        self.activation = slope if leaky else None
        fan_in = cin * int(np.prod(kernel))
        std = np.sqrt(2.0 / ((1.0 + slope**2) * fan_in))
        shape = (cin, cout, *kernel) if transpose else (cout, cin, *kernel)
        self.weight = Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if self.transpose:
            return conv_transpose3d(
                x,
                self.weight,
                self.stride,
                self.padding,
                self.output_padding,
                self.bias,
                self.activation,
            )
        return conv3d(x, self.weight, self.stride, self.padding, self.bias, self.activation)


class TwoPathAutoencoder:
    def __init__(self, config: AutoencoderConfig, rng: np.random.Generator):
        self.config = config
        c = config.in_channels
        sc = config.static_channels
        dc = config.dynamic_channels
        slope = config.leaky_slope
        two_path = config.dynamic_path

        def conv(cin, cout, geom):
            k, s, p = geom
            return Conv3dLayer(rng, cin, cout, k, s, p, slope=slope, leaky=True)

        # static encoder input channels grow by the lateral width when fused
        static_in = [c, sc[0], sc[1], sc[2]]
        if two_path:
            static_in = [c, sc[0] + dc[0], sc[1] + dc[1], sc[2] + dc[2]]
        self.static_convs = [
            conv(static_in[i], sc[i], _STATIC_GEOM[i]) for i in range(4)
        ]

        self.dynamic_convs = []
        self.laterals = []
        self.fuse_proj = None
        if two_path:
            dyn_in = [c, dc[0], dc[1], dc[2]]
            self.dynamic_convs = [
                conv(dyn_in[i], dc[i], _DYNAMIC_GEOM[i]) for i in range(4)
            ]
            tau = config.tau
            self.laterals = [
                Conv3dLayer(
                    rng, dc[i], dc[i], (5, 1, 1), (tau, 1, 1), (2, 0, 0), slope=slope
                )
                for i in range(4)
            ]
            self.fuse_proj = Conv3dLayer(
                rng,
                sc[3] + dc[3],
                sc[3],
                (1, 1, 1),
                (1, 1, 1),
                (0, 0, 0),
                slope=slope,
                leaky=True,
            )

        dec_channels = [sc[3], sc[3], sc[1], sc[0], c]
        dec_geom = _decoder_geom(config.tau)
        self.decoder = [
            Conv3dLayer(
                rng,
                dec_channels[i],
                dec_channels[i + 1],
                *dec_geom[i][:3],
                output_padding=dec_geom[i][3],
                transpose=True,
                slope=slope,
                leaky=i < 3,
            )
            for i in range(4)
        ]
        self._frozen = False

    # ----------------------------------------------------------- parameters

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}

        def add(prefix, layers):
            for i, layer in enumerate(layers):
                out[f"{prefix}{i + 1}.weight"] = layer.weight
                out[f"{prefix}{i + 1}.bias"] = layer.bias

        add("static", self.static_convs)
        add("dynamic", self.dynamic_convs)
        add("lateral", self.laterals)
        if self.fuse_proj is not None:
            out["fuse.weight"] = self.fuse_proj.weight
            out["fuse.bias"] = self.fuse_proj.bias
        add("decode", self.decoder)
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def freeze(self) -> None:
        """Disable gradient tracking on every parameter; used after step one."""
        for p in self.parameters():
            p.requires_grad = False
            p.grad = None
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        assign_state(self.named_parameters(), state)

    # -------------------------------------------------------------- forward

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 5:
            raise ShapeError(f"expected (batch, channel, time, h, w), got {x.shape}")
        _, c, t, h, w = x.shape
        cfg = self.config
        if c != cfg.in_channels:
            raise ShapeError(f"input has {c} channels, model expects {cfg.in_channels}")
        if t % cfg.tau != 0:
            raise ShapeError(f"clip length {t} is not divisible by tau={cfg.tau}")
        if h % 4 != 0 or w % 4 != 0:
            raise ShapeError(f"frame dims ({h}, {w}) must be divisible by 4")

    def encode(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        """Return (static latent, dynamic latent); dynamic is None for one-path."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        self._check_input(x)
        s = x[:, :, :: self.config.tau]
        if not self.config.dynamic_path:
            for layer in self.static_convs:
                s = layer(s)
            return s, None

        d = x
        dyn_feats = []
        for layer in self.dynamic_convs:
            d = layer(d)
            dyn_feats.append(d)
        for i, layer in enumerate(self.static_convs):
            s = layer(s)
            if i < 3:
                s = concat([s, self.laterals[i](dyn_feats[i])], axis=1)
        return s, dyn_feats[3]

    def decode(self, static_latent: Tensor, dynamic_latent: Tensor | None) -> Tensor:
        h = static_latent
        if self.config.dynamic_path:
            if dynamic_latent is None:
                raise ShapeError("two-path decode requires the dynamic latent")
            lat = self.laterals[3](dynamic_latent)
            h = self.fuse_proj(concat([h, lat], axis=1))
        for layer in self.decoder[:-1]:
            h = layer(h)
        return self.decoder[-1](h).sigmoid()

    def reconstruct(self, x: Tensor) -> Tensor:
        xs, xd = self.encode(x)
        return self.decode(xs, xd)

