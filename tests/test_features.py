"""Latent-to-density-input bridge: the array transforms and the one encode
loop that training and scoring share."""

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.config import RunConfig
from flowvad.errors import ShapeError
from flowvad.features import append_intensity, box_resample, pool_features
from flowvad.pipeline import collect_flow_samples, encode_windows, score_video, window_starts
from flowvad.scoring import aggregate_windows, patch_max_error


def box_resample_loops(frame, out_h, out_w):
    fh = frame.shape[0] // out_h
    fw = frame.shape[1] // out_w
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            total = 0.0
            for a in range(fh):
                for b in range(fw):
                    total += frame[i * fh + a, j * fw + b]
            out[i, j] = total / (fh * fw)
    return out


class TestPooling:
    def test_constant_channels_pool_to_constant(self):
        latent = np.full((1, 7, 3, 4, 4), 2.5)
        pooled = pool_features(latent)
        assert pooled.shape == (3, 2, 4, 4)
        assert np.allclose(pooled, 2.5)

    def test_single_hot_channel(self):
        latent = np.zeros((1, 256, 1, 2, 2))
        latent[0, 17] = 5.0
        pooled = pool_features(latent)
        assert np.allclose(pooled[0, 0], 5.0)
        assert np.allclose(pooled[0, 1], 5.0 / 256)

    def test_matches_loops(self, rng):
        latent = rng.normal(size=(1, 6, 4, 3, 5))
        pooled = pool_features(latent)
        for t in range(4):
            for i in range(3):
                for j in range(5):
                    col = latent[0, :, t, i, j]
                    assert pooled[t, 0, i, j] == col.max()
                    assert pooled[t, 1, i, j] == pytest.approx(col.mean())

    def test_channel_permutation_invariant(self, rng):
        latent = rng.normal(size=(1, 8, 2, 3, 3))
        perm = rng.permutation(8)
        assert np.allclose(pool_features(latent), pool_features(latent[:, perm]))

    def test_avg_below_max_unless_equal(self, rng):
        latent = rng.normal(size=(1, 5, 2, 4, 4))
        pooled = pool_features(latent)
        assert np.all(pooled[:, 1] <= pooled[:, 0] + 1e-15)

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeError):
            pool_features(np.zeros((2, 4, 2, 4, 4)))


class TestResample:
    def test_matches_loop_oracle(self, rng):
        frame = rng.uniform(size=(12, 8))
        assert np.allclose(box_resample(frame, 3, 4), box_resample_loops(frame, 3, 4))

    def test_identity_factor(self, rng):
        frame = rng.uniform(size=(6, 6))
        assert np.array_equal(box_resample(frame, 6, 6), frame)

    def test_mean_preserved(self, rng):
        frame = rng.uniform(size=(16, 16))
        assert box_resample(frame, 4, 4).mean() == pytest.approx(frame.mean())

    def test_non_integer_factor_rejected(self):
        with pytest.raises(ShapeError):
            box_resample(np.zeros((10, 10)), 4, 4)


class TestIntensity:
    def test_white_frame_gives_unit_channel(self):
        maps = np.zeros((2, 2, 4, 4))
        clip = np.ones((1, 3, 8, 16, 16))
        out = append_intensity(maps, clip, tau=4)
        assert out.shape == (2, 3, 4, 4)
        assert np.allclose(out[:, 2], 1.0)
        assert np.allclose(out[:, :2], 0.0)

    def test_uses_frame_at_sample_times_tau(self, rng):
        clip = np.zeros((1, 1, 8, 4, 4))
        for t in range(8):
            clip[0, 0, t] = t
        maps = np.zeros((2, 2, 4, 4))
        out = append_intensity(maps, clip, tau=4)
        assert np.allclose(out[0, 2], 0.0)
        assert np.allclose(out[1, 2], 4.0)

    def test_grayscale_equals_resized_frame(self, rng):
        clip = rng.uniform(size=(1, 1, 4, 8, 8))
        maps = np.zeros((1, 2, 4, 4))
        out = append_intensity(maps, clip, tau=4)
        assert np.allclose(out[0, 2], box_resample_loops(clip[0, 0, 0], 4, 4))

    def test_rgb_uses_channel_mean(self, rng):
        clip = rng.uniform(size=(1, 3, 4, 4, 4))
        maps = np.zeros((1, 2, 4, 4))
        out = append_intensity(maps, clip, tau=4)
        assert np.allclose(out[0, 2], clip[0, :, 0].mean(axis=0))

    def test_too_many_samples_rejected(self):
        with pytest.raises(ShapeError):
            append_intensity(np.zeros((3, 2, 4, 4)), np.zeros((1, 1, 8, 16, 16)), tau=4)


@pytest.fixture(scope="module")
def model():
    cfg = AutoencoderConfig(in_channels=1, tau=4)
    m = TwoPathAutoencoder(cfg, np.random.default_rng(7))
    m.freeze()
    return m


def bridge(model, clip):
    """Static and dynamic samples of one whole-clip window."""
    [(_, _, static, dynamic)] = encode_windows(model, clip, [0], clip.shape[2])
    return static, dynamic


class TestFullBridge:
    def test_shapes_and_determinism(self, model, rng):
        clip = rng.uniform(size=(1, 1, 8, 32, 32))
        s1, d1 = bridge(model, clip)
        s2, d2 = bridge(model, clip)
        assert s1.shape == (2, 3, 8, 8)
        assert d1.shape == (8, 2, 8, 8)
        assert np.array_equal(s1, s2) and np.array_equal(d1, d2)

    def test_matches_manual_composition(self, model, rng):
        clip = rng.uniform(size=(1, 1, 8, 32, 32))
        xs, xd = model.encode(clip)
        s, d = bridge(model, clip)
        assert np.array_equal(s[:, :2], pool_features(xs))
        assert np.array_equal(s, append_intensity(pool_features(xs), clip, 4))
        assert np.array_equal(d, pool_features(xd))

    def test_batched_windows_match_single_windows(self, model, rng):
        # One window per item, each a view into the video; its samples are
        # bitwise those of one batched encode of every window.
        video = rng.uniform(size=(1, 1, 16, 32, 32))
        starts = [0, 2, 4, 6, 8]
        items = list(encode_windows(model, video, starts, 8))
        assert len(items) == len(starts)
        windows = np.concatenate([video[:, :, s : s + 8] for s in starts], axis=0)
        xs, xd = model.encode(windows)
        for k, (start, (window, _, s, d)) in enumerate(zip(starts, items)):
            assert window.shape == (1, 1, 8, 32, 32)
            assert np.shares_memory(window, video)
            assert np.array_equal(window, video[:, :, start : start + 8])
            want = append_intensity(pool_features(xs[k : k + 1]), windows[k : k + 1], 4)
            assert np.array_equal(s, want)
            assert np.array_equal(d, pool_features(xd[k : k + 1]))

    def test_requires_frozen_model(self, rng):
        m = TwoPathAutoencoder(
            AutoencoderConfig(in_channels=1, tau=4), np.random.default_rng(3)
        )
        with pytest.raises(RuntimeError, match="frozen"):
            bridge(m, rng.uniform(size=(1, 1, 8, 32, 32)))

    def test_one_path_model_has_no_dynamic_input(self, rng):
        m = TwoPathAutoencoder(
            AutoencoderConfig(in_channels=1, tau=4, dynamic_path=False),
            np.random.default_rng(3),
        )
        m.freeze()
        s, d = bridge(m, rng.uniform(size=(1, 1, 8, 32, 32)))
        assert s.shape == (2, 3, 8, 8)
        assert d is None


class RecordingFlow:
    """Stands in for a flow stack: records every batch it is asked to score."""

    def __init__(self):
        self.seen = []

    def nll_of(self, samples):
        self.seen.append(np.array(samples))
        return samples.sum(axis=(1, 2, 3))


class TestTrainScoreParity:
    def test_score_feeds_flows_the_training_features(self, model, rng):
        # Disjoint full windows and no clamped tail: scoring visits exactly
        # the training windows, so the flows must see identical samples.
        video = rng.uniform(size=(1, 1, 8 * 5, 32, 32))
        config = RunConfig(clip_len=8, tau=4, clip_stride=8, score_stride=8).validate()
        static, dynamic = collect_flow_samples(model, video, config)
        flows = RecordingFlow(), RecordingFlow()
        series = score_video(model, video, config, *flows)
        assert np.array_equal(np.concatenate(flows[0].seen), static)
        assert np.array_equal(np.concatenate(flows[1].seen), dynamic)
        assert static.shape == (2 * 5, 3, 8, 8)
        assert dynamic.shape == (8 * 5, 2, 8, 8)
        assert np.all(np.isfinite(series["fused"]))

    @pytest.mark.parametrize("color, channels", [("gray", 1), ("rgb", 3)])
    def test_streamed_recon_matches_batched_decode(self, rng, color, channels):
        # Oracle: encode and decode every window in one batch, then take
        # each window's patch max error and the per-frame mean.
        m = TwoPathAutoencoder(
            AutoencoderConfig(in_channels=channels, tau=4), np.random.default_rng(5)
        )
        m.freeze()
        video = rng.uniform(size=(1, channels, 21, 32, 32))
        config = RunConfig(
            color=color, clip_len=8, tau=4, score_stride=3,
            patch_size=8, patch_stride=4,
        ).validate()
        starts = window_starts(21, 8, 3)
        windows = np.concatenate([video[:, :, s : s + 8] for s in starts], axis=0)
        out = m.reconstruct(windows).data
        rows = [
            patch_max_error(windows[k : k + 1], out[k : k + 1], patch=8, stride=4)
            for k in range(len(starts))
        ]
        want = aggregate_windows(rows, starts, 21)
        assert np.array_equal(score_video(m, video, config)["recon"], want)
