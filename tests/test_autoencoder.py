"""Topology and behavior of the two-path autoencoder."""

import tracemalloc
import warnings

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.errors import ShapeError
from flowvad.losses import recon_loss
from flowvad.tensor import Tensor

from model_oracles import layer_shapes


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

    @pytest.mark.parametrize("slope", [-0.2, 1.01])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ShapeError, match="leaky_slope"):
            AutoencoderConfig(leaky_slope=slope)


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


class TestTrainingMemory:
    def test_step_peak_stays_under_cap(self):
        """Batch-2 8x64x64 step, the acceptance geometry: reconstruct,
        recon_loss and backward together allocate under 550 MB at peak
        (about 340 MB). Conv nodes that keep their im2col columns for
        backward go past it (about 720 MB)."""
        rng = np.random.default_rng(3)
        model = TwoPathAutoencoder(AutoencoderConfig(tau=4), rng)
        x = Tensor(rng.uniform(size=(2, 1, 8, 64, 64)))
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # 3 of 5 MS-SSIM scales
                recon_loss(x, model.reconstruct(x)).total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 550 * 2**20
        assert all(p.grad is not None for p in model.parameters())
