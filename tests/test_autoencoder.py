"""Topology and behavior of the two-path autoencoder."""

import functools
import tracemalloc

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, Conv3dLayer, TwoPathAutoencoder
from flowvad.config import RunConfig
from flowvad.errors import ShapeError
from flowvad.losses import recon_loss
from flowvad.pipeline import score_video
from flowvad.tensor import LEAKY_SLOPE, Tensor
from flowvad.train import TrainConfig, train_autoencoder

from model_oracles import graph_reconstruct, layer_shapes


@pytest.fixture(scope="module")
def small_model():
    cfg = AutoencoderConfig(in_channels=1, tau=2)
    return cfg, TwoPathAutoencoder(cfg, np.random.default_rng(0))


class TestShapeArithmetic:
    def test_full_resolution_stage_table(self):
        # 3-channel 16-frame 256x256 input, tau 4
        cfg = AutoencoderConfig(in_channels=3, tau=4)
        shapes = layer_shapes(cfg, time=16, height=256, width=256)
        assert shapes["static1"] == (96, 4, 128, 128)
        assert shapes["dynamic1"] == (12, 16, 128, 128)
        assert shapes["static2"] == (128, 4, 64, 64)
        assert shapes["dynamic2"] == (16, 16, 64, 64)
        assert shapes["static3"] == (256, 4, 64, 64)
        assert shapes["dynamic3"] == (32, 16, 64, 64)
        assert shapes["static4"] == (256, 4, 64, 64)
        assert shapes["dynamic4"] == (32, 16, 64, 64)
        assert shapes["decode1"] == (256, 4, 64, 64)
        assert shapes["decode2"] == (128, 8, 128, 128)
        assert shapes["decode3"] == (96, 16, 256, 256)
        assert shapes["decode4"] == (3, 16, 256, 256)

    def test_desk_scale_latents(self):
        cfg = AutoencoderConfig(in_channels=1, tau=4)
        shapes = layer_shapes(cfg, time=8, height=64, width=64)
        assert shapes["static4"] == (256, 2, 16, 16)
        assert shapes["dynamic4"] == (32, 8, 16, 16)
        assert shapes["decode4"] == (1, 8, 64, 64)

    def test_arithmetic_matches_real_forward(self, small_model):
        cfg, model = small_model
        x = Tensor(np.random.default_rng(1).random((1, 1, 4, 16, 16)))
        xs, xd = model.encode(x)
        shapes = layer_shapes(cfg, 4, 16, 16)
        assert xs.shape[1:] == shapes["static4"]
        assert xd.shape[1:] == shapes["dynamic4"]
        recon = model.decode(xs, xd)
        assert recon.shape[1:] == shapes["decode4"]


class TestForward:
    def test_roundtrip_preserves_clip_shape(self, small_model):
        _, model = small_model
        x = Tensor(np.random.default_rng(2).random((2, 1, 4, 16, 16)))
        out = model.reconstruct(x)
        assert out.shape == x.shape

    def test_output_in_unit_interval(self, small_model):
        _, model = small_model
        x = Tensor(np.random.default_rng(3).random((1, 1, 4, 16, 16)))
        out = model.reconstruct(x)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_static_latent_ignores_skipped_frames_when_laterals_are_zero(self):
        cfg = AutoencoderConfig(in_channels=1, tau=2)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(4))
        for layer in model.laterals:
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        rng = np.random.default_rng(5)
        x = rng.random((1, 1, 4, 16, 16))
        y = x.copy()
        y[:, :, 1] = rng.random((1, 1, 16, 16))  # only a frame the static path skips
        y[:, :, 3] = rng.random((1, 1, 16, 16))
        xs_a, _ = model.encode(Tensor(x))
        xs_b, _ = model.encode(Tensor(y))
        assert np.array_equal(xs_a.data, xs_b.data)

    def test_dynamic_latent_sees_every_frame(self, small_model):
        _, model = small_model
        rng = np.random.default_rng(6)
        x = rng.random((1, 1, 4, 16, 16))
        y = x.copy()
        y[:, :, 1] += 0.1
        _, xd_a = model.encode(Tensor(x))
        _, xd_b = model.encode(Tensor(y))
        assert not np.allclose(xd_a.data, xd_b.data)

    def test_indivisible_clip_length_rejected(self, small_model):
        _, model = small_model
        with pytest.raises(ShapeError):
            model.encode(Tensor(np.zeros((1, 1, 5, 16, 16))))

    def test_frame_dims_must_divide_by_four(self, small_model):
        _, model = small_model
        with pytest.raises(ShapeError):
            model.encode(Tensor(np.zeros((1, 1, 4, 18, 18))))


class TestOnePathMode:
    def test_static_only_model_has_no_dynamic_parts(self):
        cfg = AutoencoderConfig(in_channels=1, tau=2, dynamic_path=False)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(7))
        names = set(model.named_parameters())
        assert not any(n.startswith(("dynamic", "lateral", "fuse")) for n in names)
        x = Tensor(np.random.default_rng(8).random((1, 1, 4, 16, 16)))
        xs, xd = model.encode(x)
        assert xd is None
        assert model.decode(xs, None).shape == x.shape

    def test_two_path_decode_requires_dynamic_latent(self, small_model):
        _, model = small_model
        x = Tensor(np.random.default_rng(9).random((1, 1, 4, 16, 16)))
        xs, _ = model.encode(x)
        with pytest.raises(ShapeError):
            model.decode(xs, None)


class TestParameters:
    def test_freeze_disables_gradients(self):
        cfg = AutoencoderConfig(in_channels=1, tau=2)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(10))
        model.freeze()
        assert model.frozen
        assert all(not p.requires_grad for p in model.parameters())

    def test_gradients_reach_every_parameter(self):
        cfg = AutoencoderConfig(in_channels=1, tau=2)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(11))
        x = Tensor(np.random.default_rng(12).random((1, 1, 4, 16, 16)))
        ((model.reconstruct(x) - x) ** 2).mean().backward()
        for name, p in model.named_parameters().items():
            assert p.grad is not None, name

    @pytest.mark.parametrize("transpose", [False, True], ids=["conv", "transpose"])
    def test_initial_weight_scale_follows_the_slope(self, transpose):
        # He-style: std sqrt(2 / ((1 + slope^2) fan_in)), fan_in over the
        # input channels for both kinds of layer; the bias starts at zero
        cin, cout, kernel = 3, 5, (3, 3, 3)
        rng = np.random.default_rng(13)
        layer = Conv3dLayer(rng, cin, cout, kernel, (1, 1, 1), (1, 1, 1), transpose=transpose)
        std = np.sqrt(2.0 / ((1.0 + LEAKY_SLOPE**2) * cin * 27))
        shape = (cin, cout, *kernel) if transpose else (cout, cin, *kernel)
        want = np.random.default_rng(13).normal(0.0, std, size=shape)
        assert np.array_equal(layer.weight.data, want)
        assert np.array_equal(layer.bias.data, np.zeros(cout))


def graph_nodes(t):
    """Number of tensors reachable from ``t`` through recorded parents."""
    seen, todo = set(), [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_step_graph_is_the_autoencoder_plus_one_loss_node():
    """The reconstruction is one node whose parents are the parameters, and
    the loss adds one more: a step's graph is 2 nodes over the 34
    parameters, where the per-layer graph had 56 plus the loss's one."""
    rng = np.random.default_rng(4)
    model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
    x = Tensor(rng.uniform(size=(2, 1, 8, 32, 32)))
    recon = model.reconstruct(x)
    params = model.parameters()
    assert [id(p) for p in recon._parents] == [id(p) for p in params]
    assert all(p._backward is None for p in params)
    assert graph_nodes(recon) == 1 + len(params) == 35
    assert graph_nodes(recon_loss(x, recon).total) == 2 + len(params)


def bits(a):
    """The raw float64 bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def step_grads(model, x, reconstruct):
    """Parameter gradients of one recon_loss step through ``reconstruct``,
    and the reconstruction; leaves no gradient on the model."""
    params = model.named_parameters()
    out = reconstruct(x)
    recon_loss(x, out).total.backward()
    grads = {name: p.grad for name, p in params.items()}
    for p in params.values():
        p.grad = None
    return out.data, grads


class TestHandWrittenBackward:
    """reconstruct's one node against the per-layer graph of
    ``graph_reconstruct``, built from the tests' autodiff ops."""

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("two_path", [True, False], ids=["two-path", "one-path"])
    def test_gradients_bitwise_equal_the_graph_oracle(self, two_path, batch):
        # the same products and leaky-ReLU masks run in the same order, and
        # the two gradients reaching a dynamic feature add commutatively
        rng = np.random.default_rng(5)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4, dynamic_path=two_path), rng)
        x = Tensor(rng.uniform(size=(batch, 1, 8, 64, 64)))
        want_out, want = step_grads(model, x, lambda t: graph_reconstruct(model, t))
        out, got = step_grads(model, x, model.reconstruct)
        assert np.array_equal(bits(out), bits(want_out))
        assert set(got) == set(want)
        for name, g in got.items():
            assert g is not None and np.array_equal(bits(g), bits(want[name])), name

    def test_model_trains_whole_or_is_frozen_whole(self):
        # trainable: every parameter gets its gradient; frozen: no node at all
        rng = np.random.default_rng(6)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=2), rng)
        x = Tensor(rng.uniform(size=(2, 1, 4, 16, 16)))
        _, want = step_grads(model, x, lambda t: graph_reconstruct(model, t))
        _, got = step_grads(model, x, model.reconstruct)
        assert set(got) == set(want) == set(model.named_parameters())
        for name, g in got.items():
            assert g is not None and np.array_equal(bits(g), bits(want[name])), name
        model.freeze()
        out = model.reconstruct(x)
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert all(p.grad is None for p in model.parameters())

    @pytest.mark.parametrize("two_path", [True, False], ids=["two-path", "one-path"])
    def test_every_transposed_layer_reads_a_leaky_output(self, two_path):
        # a transposed layer's backward always multiplies its input gradient
        # by the leaky-ReLU derivative, so the layer producing its input must
        # apply that activation: fuse (static4 in one-path), then decode1-3
        rng = np.random.default_rng(7)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4, dynamic_path=two_path), rng)
        layers = [*model.static_convs, *model.dynamic_convs, *model.laterals, *model.decoder]
        if two_path:
            layers.append(model.fuse_proj)
        assert [layer for layer in layers if layer.transpose] == model.decoder
        tape = {}
        model.decode(*model.encode(Tensor(rng.uniform(size=(1, 1, 8, 16, 16))), tape), tape)
        first = model.fuse_proj if two_path else model.static_convs[3]
        first_in = tape["fuse_in"] if two_path else tape["static_in"][3]
        producers = [(first, first_in), *zip(model.decoder[:3], tape["dec_in"][:3])]
        for (layer, x), fed in zip(producers, tape["dec_in"]):
            assert layer.leaky
            assert np.array_equal(layer(Tensor(x)).data, fed)

    def test_input_requiring_gradients_rejected(self, small_model):
        _, model = small_model
        x = Tensor(np.zeros((1, 1, 4, 16, 16)), requires_grad=True)
        with pytest.raises(ValueError, match="parameters only"):
            model.reconstruct(x)


class TestNoGraph:
    """Inference records no node and keeps no layer's arrays for a backward."""

    @staticmethod
    def held_after(model, monkeypatch):
        """Outputs of encode, decode and reconstruct on a 32x32 window, the
        tapes reconstruct hands encode and decode, and the bytes still
        allocated once they return, the outputs included."""
        tapes = []
        for name in ("encode", "decode"):

            def spy(self, *args, tape=None, _original=getattr(TwoPathAutoencoder, name)):
                tapes.append(tape)
                return _original(self, *args, tape=tape)

            monkeypatch.setattr(TwoPathAutoencoder, name, spy)
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(size=(1, 1, 8, 32, 32)))
        tracemalloc.start()
        try:
            xs, xd = model.encode(x)
            recon = model.decode(xs, xd)
            out = model.reconstruct(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (xs, xd, recon, out), tapes, held

    def test_inference_records_nothing_and_keeps_nothing(self, monkeypatch):
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), np.random.default_rng(8))
        model.freeze()
        outs, tapes, held = self.held_after(model, monkeypatch)
        for t in outs:
            assert t._parents == () and t._backward is None and not t.requires_grad
        assert tapes == [None] * 4  # nothing is saved for a backward, even briefly
        # the four outputs (about 0.6 MB); decode3's output alone is 6.3 MB
        assert held < sum(t.data.nbytes for t in outs) + 2**18

    def test_training_reconstruct_keeps_its_layers_for_backward(self, monkeypatch):
        # the contrast: encode and decode alone record nothing, but a
        # recording reconstruct holds the arrays its backward reads
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), np.random.default_rng(8))
        (xs, xd, recon, out), tapes, held = self.held_after(model, monkeypatch)
        assert all(t._parents == () for t in (xs, xd, recon))
        assert len(out._parents) == len(model.parameters())
        assert tapes[:2] == [None, None] and tapes[2] is tapes[3] is not None
        assert held > 96 * 8 * 32 * 32 * 8  # decode3's output at least


class TestTrainingMemory:
    # each peak is measured once and checked against both of its caps
    @staticmethod
    @functools.cache
    def step_peak(side):
        """tracemalloc peak of a batch-2 8-frame step at ``side`` pixels a
        side: reconstruct, recon_loss and backward, started after the model
        and the batch exist."""
        rng = np.random.default_rng(3)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
        x = Tensor(rng.uniform(size=(2, 1, 8, side, side)))
        tracemalloc.start()
        try:
            recon_loss(x, model.reconstruct(x)).total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.parameters())
        return peak

    @staticmethod
    @functools.cache
    def train_peak():
        """tracemalloc peak of two batch-2 64x64 train_autoencoder steps,
        Adam's moments and the rollback snapshot included, started after
        the model exists."""
        rng = np.random.default_rng(3)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
        clips = [rng.uniform(size=(1, 1, 8, 64, 64)) for _ in range(2)]
        tracemalloc.start()
        try:
            train_autoencoder(model, clips, TrainConfig(steps=2, batch_size=2, lr=1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_step_peak_stays_under_cap(self):
        """At the acceptance geometry (64x64) the step allocates under
        200 MB at peak. The transposed conv's backward forms its im2col
        columns in bounded position chunks from a padded halo of each chunk;
        padding each sample's whole output gradient and im2col'ing it at
        once goes past it (254 MB). A conv followed by a separate leaky ReLU
        node, or conv nodes that keep their im2col columns, go further (342
        and about 720 MB)."""
        assert self.step_peak(64) < 200 * 2**20

    def test_step_peak_stays_under_tight_cap(self):
        """The step allocates under 130 MB at peak at 64x64 (99 MB). Each
        decoder layer's backward writes its input gradient over its input,
        so decode3's 48 MB output is never alive beside decode4's input
        gradient, and the concats keep one array each; the per-layer graph,
        which holds both, goes past it (163 MB)."""
        assert self.step_peak(64) < 130 * 2**20

    def test_step_peak_stays_under_cap_at_128(self):
        """At 128x128 the step allocates under 700 MB at peak; whole-sample
        columns in decode3's backward go past it (1,005 MB)."""
        assert self.step_peak(128) < 700 * 2**20

    def test_step_peak_stays_under_tight_cap_at_128(self):
        """At 128x128 the step allocates under 450 MB at peak (333 MB): the
        backward no longer holds decode4's input gradient (192 MB) beside
        decode3's output of the same size, as the per-layer graph did
        (577 MB)."""
        assert self.step_peak(128) < 450 * 2**20

    def test_training_steps_peak_stays_under_cap(self):
        """Two training steps allocate under 300 MB at peak. The snapshot is
        taken after backward; one held through every forward and backward
        pass goes past it (309 MB), and further with whole-sample columns
        in decode3's backward as well (397 MB)."""
        assert self.train_peak() < 300 * 2**20

    def test_training_steps_peak_stays_under_tight_cap(self):
        """Two training steps allocate under 230 MB at peak (195 MB): the
        step's backward overwrites decoder inputs with their gradients, and
        Adam updates each parameter in blocks through two one-block scratch
        buffers. The per-layer graph with whole-parameter scratch buffers
        goes past it (259 MB)."""
        assert self.train_peak() < 230 * 2**20


class TestEncodeMemory:
    @staticmethod
    def encode_peak(side):
        """tracemalloc peak of one frozen 8-frame window's encode at
        ``side`` pixels a side, started after the model and window exist."""
        rng = np.random.default_rng(3)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
        model.freeze()
        window = Tensor(rng.uniform(size=(1, 1, 8, side, side)))
        tracemalloc.start()
        try:
            static, dynamic = model.encode(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert static.shape == (1, 256, 2, side // 4, side // 4)
        assert dynamic.shape == (1, 32, 8, side // 4, side // 4)
        return peak

    def test_encode_peak_stays_under_cap(self):
        """At 64x64 an encode allocates under 30 MB at peak (22 MB): convs
        whose im2col columns exceed the budget form them one chunk of output
        positions at a time. static4's whole columns, 32 MB a sample, go
        past it (37 MB)."""
        assert self.encode_peak(64) < 30 * 2**20

    def test_encode_peak_stays_under_cap_at_128(self):
        """At 128x128 an encode allocates under 60 MB at peak (42 MB);
        whole-sample columns go past it (148 MB)."""
        assert self.encode_peak(128) < 60 * 2**20


class TestScoringMemory:
    @staticmethod
    def score_peak(side, frames, config):
        """tracemalloc peak of scoring a random video with a frozen seeded
        two-path model and no flows; checks the series length too."""
        rng = np.random.default_rng(3)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
        model.freeze()
        video = rng.uniform(size=(1, 1, frames, side, side))
        tracemalloc.start()
        try:
            series = score_video(model, video, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series["fused"].shape == (frames,)
        return peak

    def test_score_video_peak_stays_under_cap(self):
        """Scoring a 40-frame 64x64 video at stride 1 without flows
        allocates under 80 MB at peak (about 51 MB): windows go through the
        autoencoder one at a time, decode3's output is the one large array
        of a window, finished in place, and its per-tap products are formed
        a bounded block of channels at a time. Four windows per decode go
        past it (142 MB)."""
        assert self.score_peak(64, 40, RunConfig()) < 80 * 2**20

    def test_score_video_peak_stays_under_cap_at_128(self):
        """A 12-frame 128x128 video at stride 4 without flows allocates
        under 200 MB at peak (about 137 MB); four windows per decode go past
        it (257 MB)."""
        assert self.score_peak(128, 12, RunConfig(score_stride=4)) < 200 * 2**20
