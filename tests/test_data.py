"""Image files, clip ingestion, and the synthetic scene generator."""

import hashlib

import numpy as np
import pytest

from flowvad.clips import ClipSpec, iter_clips, load_video
from flowvad.config import RunConfig
from flowvad.errors import ConfigError, ShapeError
from flowvad.pnm import read_pnm, write_pnm
from flowvad.synthetic import (
    AnomalySpan,
    SceneConfig,
    generate_scene,
    parse_labels,
    write_scene,
)
from flowvad.tensor_io import save_tensor


class TestPnm:
    def test_gray_round_trip(self, rng, tmp_path):
        img = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
        path = tmp_path / "g.pgm"
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_rgb_round_trip(self, rng, tmp_path):
        img = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        write_pnm(path, img)
        assert np.array_equal(read_pnm(path), img)

    def test_header_comments_tolerated(self, tmp_path):
        raw = b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6)
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        img = read_pnm(path)
        assert img.shape == (2, 3)
        assert np.all(img == 0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n3 2\n255\n")
        with pytest.raises(ShapeError, match="magic"):
            read_pnm(path)

    def test_truncated_header_names_file(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4")
        with pytest.raises(ShapeError, match="x.pgm: truncated header"):
            read_pnm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ShapeError, match="maxval"):
            read_pnm(path)

    def test_short_raster_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ShapeError, match="raster"):
            read_pnm(path)

    def test_non_uint8_write_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pnm(tmp_path / "x.pgm", np.zeros((3, 3)))


def write_frames(directory, frames):
    directory.mkdir(parents=True, exist_ok=True)
    for i, f in enumerate(frames):
        write_pnm(directory / f"frame_{i:05d}.pgm", f)


class TestClipLoading:
    def test_folder_window_count(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(20, 16, 16), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=8, tau=4, stride=1)
        video = load_video(spec)
        clips = list(iter_clips(spec))
        assert len(clips) == 13  # 20 - 8 + 1
        assert np.array_equal(clips[0], video[:, :, 0:8])
        assert np.array_equal(clips[-1], video[:, :, 12:20])
        assert np.array_equal(clips[-1][0, 0, -1], frames[19] / 255.0)

    def test_pixel_scaling(self, tmp_path):
        frames = np.full((8, 8, 8), 255, dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=8, tau=4)
        clip = next(iter_clips(spec))
        assert clip.shape == (1, 1, 8, 8, 8)
        assert np.all(clip == 1.0)

    def test_gray_mode_from_rgb(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(4, 8, 8, 3), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=4, tau=4, color="gray")
        clip = next(iter_clips(spec))
        want = frames[0].astype(np.float64).mean(axis=2) / 255.0
        assert np.allclose(clip[0, 0, 0], want)

    def test_rgb_mode_from_gray_replicates(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(4, 8, 8), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=4, tau=4, color="rgb")
        clip = next(iter_clips(spec))
        assert clip.shape[1] == 3
        assert np.array_equal(clip[0, 0], clip[0, 2])

    def test_resize_by_box_average(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(4, 16, 16), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=4, tau=4, resize=(8, 8))
        clip = next(iter_clips(spec))
        block = frames[0].astype(np.float64).reshape(8, 2, 8, 2).mean(axis=(1, 3))
        assert np.allclose(clip[0, 0, 0], block / 255.0)

    def test_packed_tensor_round_trip(self, rng, tmp_path):
        video = rng.uniform(size=(1, 1, 12, 8, 8))
        path = tmp_path / "v.t5"
        save_tensor(path, video)
        spec = ClipSpec(source=str(path), clip_len=4, tau=4, stride=4)
        clips = list(iter_clips(spec))
        assert len(clips) == 3
        assert np.array_equal(np.concatenate(clips, axis=2), video)

    def test_abort_mode_raises_on_corrupt_frame(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(6, 8, 8), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        (tmp_path / "v" / "frame_00002.pgm").write_bytes(b"garbage")
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=4, tau=4)
        with pytest.raises(ShapeError):
            load_video(spec)

    def test_mixed_frame_sizes_rejected(self, rng, tmp_path):
        write_frames(tmp_path / "v", rng.integers(0, 256, size=(4, 8, 8), dtype=np.uint8))
        write_pnm(tmp_path / "v" / "frame_00009.pgm", np.zeros((8, 12), dtype=np.uint8))
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=4, tau=4)
        with pytest.raises(ShapeError, match=r"frames differ in size: \[\(8, 8\), \(8, 12\)\]"):
            load_video(spec)

    def test_loader_determinism_hash(self, rng, tmp_path):
        frames = rng.integers(0, 256, size=(10, 8, 8), dtype=np.uint8)
        write_frames(tmp_path / "v", frames)
        spec = ClipSpec(source=str(tmp_path / "v"), clip_len=8, tau=4)

        def stream_hash():
            digest = hashlib.sha256()
            for clip in iter_clips(spec):
                digest.update(clip.tobytes())
                digest.update(repr(clip.shape).encode())
            return digest.hexdigest()

        assert stream_hash() == stream_hash()

    def test_spec_validation_aggregates(self):
        # the clip settings a ClipSpec is built from are checked by RunConfig
        with pytest.raises(ConfigError) as exc:
            RunConfig(clip_len=7, tau=4, clip_stride=0, color="hsv").validate()
        problems = exc.value.problems
        assert len(problems) == 3
        assert any("multiple of tau" in p for p in problems)
        assert any("clip_stride" in p for p in problems)
        assert any("hsv" in p for p in problems)

    def test_clip_invariants(self, tmp_path):
        path = tmp_path / "v.t5"
        save_tensor(path, np.full((1, 1, 4, 4, 4), 2.0))
        spec = ClipSpec(source=str(path), clip_len=4, tau=4)
        with pytest.raises(ShapeError, match="outside"):
            load_video(spec)
        with pytest.raises(ShapeError, match="outside"):
            next(iter_clips(spec))


class TestSynthetic:
    def test_same_seed_byte_identical(self):
        cfg = SceneConfig(seed=11)
        f1, l1 = generate_scene(cfg, 20, [(5, 9, "speed")])
        f2, l2 = generate_scene(cfg, 20, [(5, 9, "speed")])
        assert np.array_equal(f1, f2) and np.array_equal(l1, l2)

    def test_different_seed_differs(self):
        f1, _ = generate_scene(SceneConfig(seed=1), 8)
        f2, _ = generate_scene(SceneConfig(seed=2), 8)
        assert not np.array_equal(f1, f2)

    def test_labels_align_with_spans(self):
        _, labels = generate_scene(SceneConfig(seed=3), 30, [(4, 8, "speed"), (20, 25, "shape")])
        want = np.zeros(30, dtype=int)
        want[4:8] = 1
        want[20:25] = 1
        assert np.array_equal(labels, want)

    def test_speed_anomaly_keeps_frame_histograms(self):
        cfg = SceneConfig(seed=5, objects=1, noise_sigma=0.0)
        frames, labels = generate_scene(cfg, 40, [(20, 30, "speed")])
        base = np.bincount(frames[0].ravel(), minlength=256)
        for t in range(40):
            assert np.array_equal(np.bincount(frames[t].ravel(), minlength=256), base)

    def test_speed_anomaly_changes_motion(self):
        cfg = SceneConfig(seed=5, objects=1, noise_sigma=0.0, speed_range=(2.0, 2.0))
        frames, _ = generate_scene(cfg, 40, [(20, 30, "speed")])
        diff = np.abs(np.diff(frames.astype(float), axis=0)).mean(axis=(1, 2))
        normal = diff[:19].mean()
        anomalous = diff[20:29].mean()
        assert anomalous > 1.2 * normal

    def test_shape_anomaly_changes_appearance_not_motion(self):
        cfg = SceneConfig(seed=9, objects=2, noise_sigma=0.0)
        normal, _ = generate_scene(cfg, 40)
        swapped, _ = generate_scene(cfg, 40, [(10, 30, "shape")])
        assert not np.array_equal(normal[15], swapped[15])
        # motion energy stays in the normal range
        d_norm = np.abs(np.diff(normal.astype(float), axis=0)).mean()
        d_swap = np.abs(np.diff(swapped[10:30].astype(float), axis=0)).mean()
        assert 0.3 * d_norm < d_swap < 3.0 * d_norm

    def test_reverse_anomaly_negates_velocity(self):
        cfg = SceneConfig(seed=4, objects=1, noise_sigma=0.0)
        frames, _ = generate_scene(cfg, 21, [(10, 21, "reverse")])
        # reversing for as long as the forward run retraces the trajectory
        assert np.array_equal(frames[20], frames[0])

    def test_contradictory_overlap_rejected(self):
        with pytest.raises(ConfigError, match="contradictory"):
            generate_scene(SceneConfig(seed=0), 30, [(5, 15, "speed"), (10, 20, "shape")])

    def test_same_mode_overlap_allowed(self):
        _, labels = generate_scene(SceneConfig(seed=0), 20, [(5, 12, "speed"), (10, 15, "speed")])
        assert labels.sum() == 10

    def test_span_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            generate_scene(SceneConfig(seed=0), 10, [(5, 15, "speed")])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown anomaly mode"):
            AnomalySpan(0, 5, "teleport")

    def test_write_and_read_back(self, tmp_path):
        cfg = SceneConfig(seed=6)
        frames, labels = generate_scene(cfg, 12, [(3, 6, "shape")])
        frame_dir = write_scene(tmp_path / "scene", frames, labels)
        spec = ClipSpec(source=frame_dir, clip_len=12, tau=4)
        video = load_video(spec)
        assert np.allclose(video[0, 0] * 255, frames)
        path = tmp_path / "scene" / "labels.txt"
        back = parse_labels(path.read_text(), path)
        assert np.array_equal(back, labels)
