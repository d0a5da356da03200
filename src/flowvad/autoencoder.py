"""Two-path video autoencoder.

A static path encodes every tau-th frame (appearance); a dynamic path
encodes the full frame sequence (motion). Lateral convolutions align the
dynamic features to the static temporal resolution after the first three
encoder stages and feed them into the static path by channel concatenation.
A single decoder reconstructs the full clip from the fused latents; there
are no encoder-to-decoder skip connections, so everything the decoder uses
must pass through the bottleneck.

All activations are float64 arrays (batch, channel, time, height, width).
Spatial dims shrink by 4x in the encoder; the static temporal length is
T / tau throughout.

The forward runs on plain arrays: :meth:`~TwoPathAutoencoder.encode` and
:meth:`~TwoPathAutoencoder.decode` take and return them, and a layer call
records no autodiff node. A ``Tensor`` here is a parameter or the
reconstruction. The model trains whole or is frozen whole, and that alone
decides what records: unless the model is frozen,
:meth:`~TwoPathAutoencoder.reconstruct` records one node, the
reconstruction, whose parents are all the parameters. Its hand-written
NumPy backward walks the fixed chain in reverse, asks no parameter whether
it wants a gradient, and holds each layer's input and output only until
that layer's backward has used them. Every decoder layer writes its input
gradient over its input, the previous layer's activated output, reading
that input's leaky-ReLU sign and its weight-gradient term chunk by chunk
first (the idea of In-Place Activated BatchNorm, Rota Bulo et al.,
arXiv:1712.02616: recover an activation's backward from its output, so the
gradient can take the output's place). Each concat is one array, and a
conv's output is read back as its channel slice. A frozen model keeps
nothing for a backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import assign_state
from .errors import ShapeError
from .tensor import (
    LEAKY_SLOPE,
    Tensor,
    _leaky_grad,
    conv3d,
    conv3d_backward,
    conv_transpose3d,
    conv_transpose3d_backward,
)

__all__ = ["AutoencoderConfig", "TwoPathAutoencoder", "Conv3dLayer"]


@dataclass(frozen=True)
class AutoencoderConfig:
    """Topology knobs; channel widths are fixed by the architecture."""

    in_channels: int = 1
    tau: int = 4
    dynamic_path: bool = True

    def __post_init__(self):
        if self.tau < 1:
            raise ShapeError(f"tau must be >= 1, got {self.tau}")
        if self.in_channels not in (1, 3):
            raise ShapeError(f"in_channels must be 1 or 3, got {self.in_channels}")


# output channels per encoder stage
_STATIC_CHANNELS = (96, 128, 256, 256)
_DYNAMIC_CHANNELS = (12, 16, 32, 32)
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
    ``leaky=True``, a leaky ReLU of the fixed slope ``tensor.LEAKY_SLOPE``.

    A call runs the layer's forward on an array: the conv kernel adds the
    bias and applies the activation to each block of its output in place
    (see :func:`flowvad.tensor.conv3d`), so it allocates one output array,
    which it returns as an unrecorded ``Tensor``. :meth:`backward` is the
    layer's part of the model's hand-written backward pass. ``LEAKY_SLOPE``
    also sets the He-style initial weight scale, with or without the
    activation.
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
        leaky: bool = False,
    ):
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.output_padding = tuple(output_padding)
        self.transpose = transpose
        self.leaky = leaky
        fan_in = cin * int(np.prod(kernel))
        std = np.sqrt(2.0 / ((1.0 + LEAKY_SLOPE**2) * fan_in))
        shape = (cin, cout, *kernel) if transpose else (cout, cin, *kernel)
        self.weight = Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: np.ndarray) -> Tensor:
        w, b = self.weight.data, self.bias.data
        if self.transpose:
            y = conv_transpose3d(x, w, self.stride, self.padding, self.output_padding, b, self.leaky)
        else:
            y = conv3d(x, w, self.stride, self.padding, b, self.leaky)
        return Tensor(y)

    def backward(self, x: np.ndarray, gy: np.ndarray, grad_input: bool = True):
        """Add the gradients of this layer's call on ``x`` to both its weight
        and its bias, given ``gy``, the gradient of the call's output with
        the layer's own activation already undone (a C-contiguous array),
        and return the input gradient, or None without ``grad_input``.

        A conv returns a new array. A transposed layer ignores
        ``grad_input``: its input in the model is always a leaky ReLU's
        output (``fuse``'s or ``static4``'s, then ``decode1``'s to
        ``decode3``'s), so it writes the input gradient over ``x`` itself,
        multiplied by that activation's derivative, and returns the gradient
        of its producer's pre-activation in ``x``'s memory.
        """
        self.bias._accumulate(gy.sum(axis=(0, 2, 3, 4)), owned=True)
        w = self.weight.data
        if self.transpose:
            gw = conv_transpose3d_backward(x, w, gy, self.stride, self.padding, leaky_input=True)
            gx = x
        else:
            gw, gx = conv3d_backward(x, w, gy, self.stride, self.padding, grad_input)
        self.weight._accumulate(gw, owned=True)
        return gx


class TwoPathAutoencoder:
    def __init__(self, config: AutoencoderConfig, rng: np.random.Generator):
        self.config = config
        c = config.in_channels
        sc, dc = _STATIC_CHANNELS, _DYNAMIC_CHANNELS
        two_path = config.dynamic_path

        def conv(cin, cout, geom):
            k, s, p = geom
            return Conv3dLayer(rng, cin, cout, k, s, p, leaky=True)

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
                Conv3dLayer(rng, dc[i], dc[i], (5, 1, 1), (tau, 1, 1), (2, 0, 0))
                for i in range(4)
            ]
            self.fuse_proj = Conv3dLayer(
                rng, sc[3] + dc[3], sc[3], (1, 1, 1), (1, 1, 1), (0, 0, 0), leaky=True
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
                leaky=i < 3,
            )
            for i in range(4)
        ]
        self._frozen = False

    # ----------------------------------------------------------- parameters

    def _named_tensors(self) -> dict[str, Tensor]:
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

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Name -> parameter array, what a checkpoint stores."""
        return {name: p.data for name, p in self._named_tensors().items()}

    def parameters(self) -> list[Tensor]:
        """The trainable arrays: one Tensor per named parameter."""
        return list(self._named_tensors().values())

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

    def _check_input(self, x: np.ndarray) -> None:
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

    def encode(
        self, x: np.ndarray, tape: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Return (static latent, dynamic latent); dynamic is None for one-path.

        With a ``tape`` (from :meth:`reconstruct`) it saves the arrays the
        backward pass reads: each static conv's input, and the input of each
        dynamic conv plus the last one's output.
        """
        self._check_input(x)
        s = x[:, :, :: self.config.tau]
        static_in = []
        d, dyn = x, []
        if self.config.dynamic_path:
            dyn.append(x)
            for layer in self.dynamic_convs:
                d = layer(d).data
                dyn.append(d)
        for i, layer in enumerate(self.static_convs):
            if tape is not None:
                static_in.append(s)
            s = layer(s).data
            if self.config.dynamic_path and i < 3:
                # one array; the backward reads the conv's output as its channel slice
                s = np.concatenate([s, self.laterals[i](dyn[i + 1]).data], axis=1)
        if tape is not None:
            tape.update(static_in=static_in, dyn=dyn)
        if not self.config.dynamic_path:
            return s, None
        return s, d

    def decode(
        self,
        static_latent: np.ndarray,
        dynamic_latent: np.ndarray | None,
        tape: dict | None = None,
    ) -> np.ndarray:
        """Reconstruct the clip from the latents; with a ``tape`` it saves
        ``fuse``'s input and each decoder layer's."""
        h = static_latent
        if self.config.dynamic_path:
            if dynamic_latent is None:
                raise ShapeError("two-path decode requires the dynamic latent")
            h = np.concatenate([h, self.laterals[3](dynamic_latent).data], axis=1)
            if tape is not None:
                tape["fuse_in"] = h
            h = self.fuse_proj(h).data
        dec_in = []
        for layer in self.decoder:
            if tape is not None:
                dec_in.append(h)
            h = layer(h).data
        if tape is not None:
            tape["dec_in"] = dec_in
        # 1 / (1 + exp(-x)): exp overflows to inf only where the result is
        # below the smallest normal float, and underflows where it rounds to 1
        with np.errstate(over="ignore", under="ignore"):
            return 1.0 / (1.0 + np.exp(-h))

    def reconstruct(self, x: np.ndarray) -> Tensor:
        """``decode(*encode(x))`` as a ``Tensor``. Unless the model is frozen,
        it is the one recorded autodiff node, whose parents are all the
        parameters and whose backward is :meth:`_backward`; a frozen model
        records nothing and keeps nothing for a backward."""
        tape = None if self._frozen else {}
        out = Tensor(self.decode(*self.encode(x, tape=tape), tape=tape))
        if tape is None:
            return out

        def backward():
            self._backward(tape, out.data, out.grad)

        return out._record(self.parameters(), backward)

    def _backward(self, tape: dict, recon: np.ndarray, grad: np.ndarray) -> None:
        """Give every parameter its gradient, from ``grad``, the gradient of
        the reconstruction ``recon``, walking the fixed chain in reverse: the
        sigmoid, ``decode4`` to ``decode1``, ``fuse``, the static path with
        the laterals, and the dynamic path. Each array of the ``tape`` is
        popped when its layer's backward needs it and dropped once it has
        been used.

        Each decoder layer writes its input gradient over its input, the
        activated output of the layer before it, already multiplied by that
        layer's leaky-ReLU derivative (see
        :func:`~flowvad.tensor.conv_transpose3d_backward`), and the layer
        before starts from that buffer. So the largest array of the step,
        ``decode3``'s output, is never alive beside a gradient of its size.
        The encoder's gradients are new arrays; a concat's gradient is split
        into contiguous copies of its channel slices, and the two gradients
        reaching a dynamic feature, through the next dynamic conv and
        through its lateral, are added before its own activation is undone.
        """
        two_path = self.config.dynamic_path
        g = recon * (1.0 - recon) * grad  # through the sigmoid
        dec_in = tape["dec_in"]
        for layer in reversed(self.decoder):
            h = dec_in.pop()
            layer.backward(h, g)
            g = h  # now the gradient of h's producer before its activation
            del h
        # g: the gradient of fuse's pre-activation, or of static4's in one-path
        cat, lat_grads = None, [None] * 4
        if two_path:
            cat = tape.pop("fuse_in")
            g = self.fuse_proj.backward(cat, g)
        static_in = tape["static_in"]
        channels = _STATIC_CHANNELS
        for i in reversed(range(4)):
            # g: the gradient of static i's output, next to lateral i's in
            # cat when two-path; in one-path at i = 3 already of its
            # pre-activation, and below that of its activated output, cat
            if two_path:
                lat_grads[i] = g[:, channels[i] :].copy()
                g = g[:, : channels[i]].copy()
                _leaky_grad(g, cat[:, : channels[i]])
            elif i < 3:
                _leaky_grad(g, cat)
            cat = static_in.pop()
            g = self.static_convs[i].backward(cat, g, grad_input=i > 0)
        del cat, g
        if not two_path:
            return
        dyn = tape["dyn"]
        d_out, g = dyn.pop(), None
        for i in reversed(range(4)):
            # the gradient of dynamic i's output: through lateral i, plus
            # through dynamic i + 1 below the top
            g_lat = self.laterals[i].backward(d_out, lat_grads[i])
            lat_grads[i] = None
            g = g_lat if g is None else g + g_lat
            del g_lat
            _leaky_grad(g, d_out)
            d_out = dyn.pop()  # dynamic i's input
            g = self.dynamic_convs[i].backward(d_out, g, grad_input=i > 0)
