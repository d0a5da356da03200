"""Packed tensor files and checkpoint directories."""

import json
import os
import struct

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.checkpoint import (
    checkpoint_hash,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from flowvad.errors import ConfigError, NumericError, ShapeError
from flowvad.tensor_io import MAGIC, load_tensor, save_tensor


class TestTensorFiles:
    def test_round_trip_5d(self, rng, tmp_path):
        arr = rng.normal(size=(2, 3, 4, 5, 6))
        path = tmp_path / "a.t5"
        save_tensor(path, arr)
        assert np.array_equal(load_tensor(path), arr)

    def test_lower_rank_left_padded(self, rng, tmp_path):
        arr = rng.normal(size=(4, 5))
        path = tmp_path / "b.t5"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == (1, 1, 1, 4, 5)
        assert np.array_equal(back[0, 0, 0], arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "c.t5"
        save_tensor(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        magic, *dims = struct.unpack_from("<4s5I", raw)
        assert magic == MAGIC
        assert tuple(dims) == (1, 1, 1, 2, 3)
        assert len(raw) == 24 + 8 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.t5"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(ShapeError, match="magic"):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.t5"
        save_tensor(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeError, match="payload"):
            load_tensor(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.t5"
        arr = np.zeros((2, 2))
        arr[0, 0] = np.nan
        save_tensor(path, arr)
        with pytest.raises(NumericError):
            load_tensor(path)

    def test_rank_6_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_tensor(tmp_path / "x.t5", np.zeros((1,) * 6))


class TestCheckpoints:
    def test_model_round_trip(self, tmp_path):
        cfg = AutoencoderConfig(in_channels=1, tau=4)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(5))
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, model.named_parameters(), cfg)

        fresh = TwoPathAutoencoder(cfg, np.random.default_rng(99))
        fresh.load_state(load_checkpoint(ckpt, cfg))
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, fresh.named_parameters()[name].data), name

    def test_true_shapes_restored(self, rng, tmp_path):
        params = {"w.bias": rng.normal(size=(7,)), "w.kernel": rng.normal(size=(2, 3, 4))}
        save_checkpoint(tmp_path / "c", params, {"k": 1})
        back = load_checkpoint(tmp_path / "c")
        assert back["w.bias"].shape == (7,)
        assert back["w.kernel"].shape == (2, 3, 4)

    def test_fingerprint_guards_config(self, tmp_path):
        cfg_a = AutoencoderConfig(in_channels=1, tau=4)
        cfg_b = AutoencoderConfig(in_channels=1, tau=2)
        model = TwoPathAutoencoder(cfg_a, np.random.default_rng(5))
        save_checkpoint(tmp_path / "c", model.named_parameters(), cfg_a)
        with pytest.raises(ConfigError, match="fingerprint"):
            load_checkpoint(tmp_path / "c", cfg_b)

    def test_fingerprint_stable_across_instances(self):
        a = AutoencoderConfig(in_channels=3, tau=4)
        b = AutoencoderConfig(in_channels=3, tau=4)
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(
            AutoencoderConfig(in_channels=1, tau=4)
        )

    def test_hash_changes_with_content(self, rng, tmp_path):
        params = {"w": rng.normal(size=(3, 3))}
        save_checkpoint(tmp_path / "c", params, {"k": 1})
        h1 = checkpoint_hash(tmp_path / "c")
        assert h1 == checkpoint_hash(tmp_path / "c")
        params["w"][0, 0] += 1.0
        save_checkpoint(tmp_path / "c2", params, {"k": 1})
        assert h1 != checkpoint_hash(tmp_path / "c2")

    def test_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ConfigError, match="no checkpoint manifest"):
            load_checkpoint(tmp_path / "empty")

    def test_manifest_is_sorted_json(self, rng, tmp_path):
        save_checkpoint(tmp_path / "c", {"b": rng.normal(size=2), "a": rng.normal(size=2)}, {})
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert list(manifest["parameters"]) == ["a", "b"]
