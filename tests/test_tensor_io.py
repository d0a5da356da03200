"""Packed tensor files and checkpoint directories."""

import errno
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from flowvad import checkpoint
from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.checkpoint import (
    checkpoint_hash,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from flowvad.errors import ConfigError, NumericError, ShapeError
from flowvad.flow import FlowConfig, FlowStack
from flowvad.tensor_io import MAGIC, load_tensor, read_tensor, save_tensor


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

    def test_returns_native_float64(self, rng, tmp_path):
        path = tmp_path / "n.t5"
        save_tensor(path, rng.normal(size=(3, 4)))
        back = load_tensor(path)
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.flags.c_contiguous and back.flags.writeable and back.flags.owndata

    def test_huge_dims_rejected_before_allocation(self, tmp_path):
        # 65535**5 doubles overflow int64; the file holds 16 payload bytes
        path = tmp_path / "huge.t5"
        path.write_bytes(struct.pack("<4s5I", MAGIC, *(65535,) * 5) + b"\x00" * 16)
        with pytest.raises(ShapeError, match="payload length 16 does not match"):
            load_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.t5"
        save_tensor(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ShapeError, match="payload"):
            load_tensor(path)

    @pytest.mark.parametrize("drift, problem", [(-8, "ends after 40 of 48 bytes"),
                                                (8, "trailing bytes")])
    def test_file_changed_after_size_check_rejected(self, tmp_path, monkeypatch,
                                                    drift, problem):
        # The file is cut or grows between the size check and the read.
        path = tmp_path / "moving.t5"
        save_tensor(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[: 24 + 48 + drift] + b"\x00" * max(drift, 0))
        real_fstat = os.fstat

        class Stat:
            def __init__(self, fd):
                self.st_size = real_fstat(fd).st_size - drift

        monkeypatch.setattr(os, "fstat", Stat)
        with pytest.raises(ShapeError, match=problem):
            load_tensor(path)

    def test_read_in_parts(self, rng, tmp_path):
        path = tmp_path / "parts.t5"
        arr = rng.normal(size=(2, 3))
        save_tensor(path, arr)
        parts = read_tensor(path, [2, 0, 4])
        assert [p.shape for p in parts] == [(2,), (0,), (4,)]
        assert all(p.flags.owndata and p.dtype == np.float64 for p in parts)
        assert np.array_equal(np.concatenate(parts), arr.ravel())
        with pytest.raises(ShapeError, match="payload holds 6 values, but the sizes to read add up to 7"):
            read_tensor(path, [3, 4])

    def test_rank_6_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_tensor(tmp_path / "x.t5", np.zeros((1,) * 6))


# the configuration of the checkpoints that hold hand-made parameters
CFG = AutoencoderConfig()


def small_model(kind):
    if kind == "autoencoder":
        return TwoPathAutoencoder(AutoencoderConfig(in_channels=1, tau=2), np.random.default_rng(0))
    return FlowStack(FlowConfig(channels=2, levels=1, steps=2, hidden=4), np.random.default_rng(0))


class TestCheckpoints:
    def test_model_round_trip(self, tmp_path):
        cfg = AutoencoderConfig(in_channels=1, tau=4)
        model = TwoPathAutoencoder(cfg, np.random.default_rng(5))
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, model.named_parameters(), cfg)

        fresh = TwoPathAutoencoder(cfg, np.random.default_rng(99))
        fresh.load_state(load_checkpoint(ckpt, cfg))
        for name, p in model.named_parameters().items():
            assert np.array_equal(p, fresh.named_parameters()[name]), name

    @pytest.mark.parametrize("damage", ["wrong-shape", "missing-name", "extra-name", "nan-value"])
    @pytest.mark.parametrize("kind", ["autoencoder", "flow"])
    def test_load_state_rejects(self, kind, damage):
        model = small_model(kind)
        params = model.named_parameters()
        before = {name: p.copy() for name, p in params.items()}
        state = {name: -v for name, v in before.items()}
        last = list(state)[-1]
        if damage == "wrong-shape":
            state[last] = np.zeros((2, 2))
        elif damage == "missing-name":
            state.pop(last)
        elif damage == "extra-name":
            state["unknown.weight"] = np.zeros(3)
        else:
            state[last] = np.full_like(state[last], np.nan)
        with pytest.raises(NumericError if damage == "nan-value" else ShapeError):
            model.load_state(state)
        for name, p in model.named_parameters().items():  # nothing copied, not even the first
            assert np.array_equal(p, before[name]), name

    @pytest.mark.parametrize("kind", ["autoencoder", "flow"])
    def test_load_state_copies_in_place(self, kind):
        model = small_model(kind)
        arrays = model.named_parameters()
        state = {name: -v.copy() - 1.0 for name, v in arrays.items()}
        want = {name: v.copy() for name, v in state.items()}
        model.load_state(state)
        for name, p in model.named_parameters().items():
            assert p is arrays[name], name
            assert np.array_equal(p, want[name]), name
        for v in state.values():
            v += 5.0
        for name, p in model.named_parameters().items():  # no memory shared with the state
            assert np.array_equal(p, want[name]), name

    def test_true_shapes_restored(self, rng, tmp_path):
        params = {"w.bias": rng.normal(size=(7,)), "w.kernel": rng.normal(size=(2, 3, 4))}
        save_checkpoint(tmp_path / "c", params, CFG)
        back = load_checkpoint(tmp_path / "c", CFG)
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
        save_checkpoint(tmp_path / "c", params, CFG)
        h1 = checkpoint_hash(tmp_path / "c")
        assert h1 == checkpoint_hash(tmp_path / "c")
        params["w"][0, 0] += 1.0
        save_checkpoint(tmp_path / "c2", params, CFG)
        assert h1 != checkpoint_hash(tmp_path / "c2")

    def test_missing_manifest(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ConfigError, match="no checkpoint manifest"):
            load_checkpoint(tmp_path / "empty", CFG)

    def test_manifest_is_sorted_json(self, rng, tmp_path):
        params = {"b": rng.normal(size=2), "a": rng.normal(size=2)}
        save_checkpoint(tmp_path / "c", params, CFG)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert list(manifest["parameters"]) == ["a", "b"]

    def test_one_payload_in_sorted_name_order(self, rng, tmp_path):
        params = {"b.w": rng.normal(size=(2, 3)), "a.bias": rng.normal(size=4),
                             "a.w": rng.normal(size=(1, 2, 1))}
        save_checkpoint(tmp_path / "c", params, CFG)
        assert sorted(os.listdir(tmp_path / "c")) == ["manifest.json", "params.t5"]
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["format"] == "flowvad-checkpoint-v2"
        assert manifest["parameters"] == {"a.bias": [4], "a.w": [1, 2, 1], "b.w": [2, 3]}
        raw = (tmp_path / "c" / "params.t5").read_bytes()
        assert raw[:24] == struct.pack("<4s5I", MAGIC, 1, 1, 1, 1, 12)
        want = b"".join(params[n].astype("<f8").tobytes() for n in ("a.bias", "a.w", "b.w"))
        assert raw[24:] == want

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_save_keeps_previous_checkpoint(self, rng, tmp_path, monkeypatch, failing):
        """A save whose first or second file write fails part way leaves the
        previous checkpoint bit for bit and no temporary file."""
        ckpt = tmp_path / "c"
        old = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}
        save_checkpoint(ckpt, old, CFG)
        before = {name: (ckpt / name).read_bytes() for name in os.listdir(ckpt)}
        opened = []

        def open_then_fail(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            opened.append(os.path.basename(path))
            if len(opened) == failing:
                fh.write(b"\0" if "b" in mode else "{")  # part of the file reaches disk
                fh.close()
                raise OSError(errno.ENOSPC, "No space left on device")
            return fh

        monkeypatch.setattr(checkpoint, "open", open_then_fail, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(ckpt, {name: p + 1.0 for name, p in old.items()}, CFG)
        assert opened == ["params.t5.tmp", "manifest.json.tmp"][:failing]
        assert {name: (ckpt / name).read_bytes() for name in os.listdir(ckpt)} == before
        back = load_checkpoint(ckpt, CFG)
        assert all(np.array_equal(back[name], p) for name, p in old.items())


class TestCheckpointMemory:
    """The tau-4 autoencoder's parameters are 49.9 MB of float64."""

    @pytest.fixture(scope="class")
    def model(self):
        cfg = AutoencoderConfig(tau=4)
        return TwoPathAutoencoder(cfg, np.random.default_rng(0)), cfg

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_save_writes_each_buffer_without_a_joined_copy(self, model, tmp_path):
        """Saving allocates under 1 MB at peak (0.03 MB)."""
        (ae, cfg) = model
        peak, _ = self.peak(lambda: save_checkpoint(tmp_path, ae.named_parameters(), cfg))
        assert peak < 2**20

    def test_load_holds_each_parameter_once_and_checks_them_one_by_one(self, model, tmp_path):
        """Loading peaks at the payload plus one parameter's finiteness mask:
        under 1.05 times the payload (1.04); one mask over the whole payload
        would take 1.125. Each parameter is read into its own allocation, at
        most 16 MB here, which the allocator can serve from memory it already
        holds; one 50 MB block takes fresh pages and raised the resident peak
        of the score benchmark's set-up by 45 MB."""
        (ae, cfg) = model
        save_checkpoint(tmp_path, ae.named_parameters(), cfg)
        payload = os.path.getsize(tmp_path / "params.t5") - 24
        peak, state = self.peak(lambda: load_checkpoint(tmp_path, cfg))
        assert sum(v.nbytes for v in state.values()) == payload
        assert peak < 1.05 * payload
        owners = [v if v.base is None else v.base for v in state.values()]
        assert all(o.flags.owndata for o in owners) and len(set(map(id, owners))) == len(state)
