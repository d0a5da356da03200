"""Configuration parsing and the command-line pipeline."""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowvad
from flowvad.autoencoder import AutoencoderConfig
from flowvad.checkpoint import load_checkpoint
from flowvad.cli import main
from flowvad.config import (
    LEAST_VALUE,
    PRESETS,
    RunConfig,
    parse_config,
    serialize_config,
)
from flowvad.errors import ConfigError
from flowvad.flow import FlowConfig
from flowvad.losses import SSIM_WINDOW
from flowvad.tensor_io import save_tensor


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


class TestConfigFormat:
    def test_round_trip(self):
        cfg = RunConfig(data_path="d", clip_len=16, tau=4, lambda_l=0.7)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        text = "# heading\n\nclip_len = 8  # trailing\ntau = 4\n"
        cfg = parse_config(text)
        assert cfg.clip_len == 8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("no_such_knob = 1\n")

    def test_all_problems_reported_at_once(self):
        text = "no_such = 1\nclip_len = banana\ntau = 4\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.problems) == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("tau = 4\ntau = 2\n")

    def test_bool_parsing(self):
        cfg = parse_config("dynamic_path = false\nuse_dynamic_flow = false\n")
        assert cfg.dynamic_path is False

    def test_overrides_win(self):
        cfg = parse_config("clip_len = 8\n", overrides={"clip_len": "16"})
        assert cfg.clip_len == 16

    def test_validation_clip_len_vs_tau(self):
        with pytest.raises(ConfigError, match="multiple of tau"):
            parse_config("clip_len = 6\ntau = 4\n")

    def test_validation_resize_grain_includes_flow_levels(self):
        # the encoder divides by 4 and each flow level squeezes 2x2 blocks:
        # 2 levels need multiples of 16, 3 levels multiples of 32
        with pytest.raises(ConfigError, match="multiples of 16"):
            parse_config("resize_h = 24\nresize_w = 24\nflow_levels = 2\n")
        parse_config("resize_h = 32\nresize_w = 32\nflow_levels = 2\n")
        parse_config("resize_h = 32\nresize_w = 32\nflow_levels = 3\n")
        with pytest.raises(ConfigError, match="multiples of 32"):
            parse_config("resize_h = 48\nresize_w = 48\nflow_levels = 3\n")

    def test_validation_resize_grain_without_flows(self):
        flows_off = "use_static_flow = false\nuse_dynamic_flow = false\n"
        parse_config("resize_h = 20\nresize_w = 20\nflow_levels = 3\n" + flows_off)
        with pytest.raises(ConfigError, match="multiples of 4"):
            parse_config("resize_h = 18\nresize_w = 20\n" + flows_off)

    def test_validation_score_stride_within_clip(self):
        with pytest.raises(ConfigError, match="score_stride 12 above clip_len 8"):
            parse_config("clip_len = 8\nscore_stride = 12\n")
        parse_config("clip_len = 8\nscore_stride = 8\n")

    def test_check_frames_uses_the_grain_and_patch_size(self):
        config = RunConfig(flow_levels=2, patch_size=24)
        config.check_frames("v.t5", np.zeros((1, 1, 8, 32, 48)))
        with pytest.raises(ConfigError) as exc:
            config.check_frames("v.t5", np.zeros((1, 1, 8, 20, 20)))
        assert [p.split(":")[0] for p in exc.value.problems] == ["v.t5", "v.t5"]
        assert "multiples of 16" in exc.value.problems[0]
        assert "patch_size 24" in exc.value.problems[1]
        flows_off = dataclasses.replace(
            config, use_static_flow=False, use_dynamic_flow=False, patch_size=16
        )
        flows_off.check_frames("v.t5", np.zeros((1, 1, 8, 20, 20)))
        with pytest.raises(ConfigError, match="multiples of 4"):
            flows_off.check_frames("v.t5", np.zeros((1, 1, 8, 20, 22)))
        with pytest.raises(ConfigError, match="v.t5: video has 7 frames, need at least 8"):
            flows_off.check_frames("v.t5", np.zeros((1, 1, 7, 20, 20)))

    def test_validation_dynamic_flow_needs_dynamic_path(self):
        with pytest.raises(ConfigError, match="dynamic_path"):
            parse_config("dynamic_path = false\n")
        parse_config("dynamic_path = false\nuse_dynamic_flow = false\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", ["lambda_l", "itae_lr", "nf_lr"])
    def test_rates_and_weights_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a finite number >= 0, got {value}"):
            parse_config(f"{name} = {value}\n")

    def test_presets(self):
        # a preset is a set of overrides laid over the file; each one is valid alone
        for name, preset in PRESETS.items():
            cfg = parse_config("", preset)
            assert {key: getattr(cfg, key) for key in preset} == preset, name
        cfg = parse_config("itae_batch = 4\nnf_lr = 0.001\n", PRESETS["large-scene"])
        assert cfg.itae_batch == 8 and cfg.itae_lr == pytest.approx(1e-2)
        assert cfg.nf_lr == pytest.approx(1e-4)

    def test_every_numeric_field_has_a_least_value(self):
        numeric = {f.name for f in dataclasses.fields(RunConfig) if f.type in (int, float)}
        assert set(LEAST_VALUE) == numeric

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, bad)
            for name, least in LEAST_VALUE.items()
            for bad in (
                [str(least - 1)] if _FIELD_TYPES[name] is int else ["-1.0", "nan", "inf"]
            )
        ],
    )
    def test_each_number_below_its_least_value_is_refused(self, name, value):
        rule = ">=" if _FIELD_TYPES[name] is int else "a finite number >="
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{name} = {value}\n")
        assert f"{name} must be {rule} {LEAST_VALUE[name]}, got {value}" in exc.value.problems

    def test_parse_problem_names_the_type(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("tau = 2.5\nitae_lr = fast\n")
        assert exc.value.problems == [
            "tau: cannot parse '2.5' as int",
            "itae_lr: cannot parse 'fast' as float",
        ]

    def test_serialize_covers_every_field(self):
        text = serialize_config(RunConfig())
        for f in dataclasses.fields(RunConfig):
            assert f"{f.name} = " in text


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A tiny normal scene and an anomalous test scene, 32x32."""
    root = tmp_path_factory.mktemp("cli_scene")
    train = root / "train"
    test = root / "test"
    assert main([
        "gen-synth", "--out-dir", str(train), "--n-frames", "48",
        "--seed", "3", "--canvas", "32", "--objects", "2", "--noise-sigma", "0",
    ]) == 0
    assert main([
        "gen-synth", "--out-dir", str(test), "--n-frames", "32",
        "--seed", "8", "--canvas", "32", "--objects", "2", "--noise-sigma", "0",
        "--anomaly", "12:24:speed",
    ]) == 0
    return root


BASE_FLAGS = [
    "--clip-len", "8", "--tau", "4", "--clip-stride", "8",
    "--itae-steps", "2", "--itae-batch", "1", "--nf-steps", "3",
    "--nf-batch", "8", "--flow-levels", "2", "--flow-steps", "2",
    "--flow-hidden", "8", "--score-stride", "4", "--seed", "1",
]


@pytest.fixture(scope="module")
def trained_run(scene, tmp_path_factory):
    """One full train-itae + train-nf pass shared by the command tests."""
    out = tmp_path_factory.mktemp("cli_run")
    rc = main(["train-itae", "--data-path", str(scene / "train"),
               "--out-dir", str(out), *BASE_FLAGS])
    assert rc == 0
    rc = main(["train-nf", "--data-path", str(scene / "train"),
               "--out-dir", str(out), *BASE_FLAGS])
    assert rc == 0
    return out


class TestGenSynth:
    def test_outputs_and_determinism(self, scene, tmp_path):
        again = tmp_path / "again"
        assert main([
            "gen-synth", "--out-dir", str(again), "--n-frames", "48",
            "--seed", "3", "--canvas", "32", "--objects", "2", "--noise-sigma", "0",
        ]) == 0
        a = sorted(os.listdir(scene / "train" / "frames"))
        b = sorted(os.listdir(again / "frames"))
        assert a == b
        for name in a[:5]:
            assert (scene / "train" / "frames" / name).read_bytes() == (
                again / "frames" / name
            ).read_bytes()

    def test_labels_file(self, scene):
        labels = (scene / "test" / "labels.txt").read_text().split()
        assert len(labels) == 32
        assert labels[12] == "1" and labels[0] == "0"

    def test_bad_anomaly_flag(self, tmp_path, capsys):
        rc = main(["gen-synth", "--out-dir", str(tmp_path / "x"),
                   "--anomaly", "5-10-speed"])
        assert rc == 2
        assert "anomaly" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, problem",
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--noise-sigma", "nan", "noise_sigma must be a finite number >= 0, got nan"),
            ("--noise-sigma", "inf", "noise_sigma must be a finite number >= 0, got inf"),
            ("--objects", "0", "objects must be >= 1, got 0"),
        ],
    )
    def test_bad_scene_number_exit_2(self, tmp_path, capsys, flag, value, problem):
        out = tmp_path / "x"
        assert main(["gen-synth", "--out-dir", str(out), "--n-frames", "2", flag, value]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_frames", ["-1", "0"])
    def test_no_frames_exit_2(self, tmp_path, capsys, n_frames):
        out = tmp_path / "x"
        assert main(["gen-synth", "--out-dir", str(out), "--n-frames", n_frames]) == 2
        assert f"config error: --n-frames must be >= 1, got {n_frames}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_with_frames_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen-synth", "--out-dir", str(out), "--n-frames", "16"]) == 0
        before = {str(p): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["gen-synth", "--out-dir", str(out), "--n-frames", "8", "--seed", "1"]) == 2
        assert capsys.readouterr().err == (
            f"config error: {out / 'frames'} already holds frames; give a new or empty --out-dir\n"
        )
        assert {str(p): p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_is_a_file_exit_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "x"
        blocker.write_text("keep\n")
        out, where = (blocker / "sub", f": {blocker}") if under else (blocker, "")
        assert main(["gen-synth", "--out-dir", str(out), "--n-frames", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out-dir {out}{where} is not a directory\n"
        assert blocker.read_text() == "keep\n"


class TestTrainCommands:
    def test_itae_artifacts(self, trained_run):
        assert (trained_run / "itae" / "manifest.json").exists()
        loss = (trained_run / "itae_loss.csv").read_text().splitlines()
        assert loss[0] == "step,l2,ms_ssim,gradient,total"
        assert len(loss) == 3  # header + 2 steps
        resolved = (trained_run / "config.cfg").read_text()
        assert "clip_len = 8" in resolved

    def test_itae_deterministic_loss_log(self, scene, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train-itae", "--data-path", str(scene / "train"),
                         "--out-dir", str(out), *BASE_FLAGS]) == 0
            outs.append((out / "itae_loss.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_nf_artifacts(self, trained_run):
        for kind in ("nf_static", "nf_dynamic"):
            assert (trained_run / kind / "manifest.json").exists()
            curve = (trained_run / f"{kind}_loss.csv").read_text().splitlines()
            assert curve[0] == "step,nll"
            assert len(curve) == 4

    def test_nf_refuses_wrong_fingerprint(self, scene, trained_run, capsys):
        rc = main(["train-nf", "--data-path", str(scene / "train"),
                   "--out-dir", str(trained_run), *BASE_FLAGS, "--tau", "2",
                   "--clip-len", "8"])
        assert rc == 2
        assert "different configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("kept, dropped", [("static", "dynamic"), ("dynamic", "static")])
    def test_nf_one_flow_ablation(self, scene, trained_run, tmp_path, kept, dropped):
        out = tmp_path / "abl"
        flags = ["--out-dir", str(out), "--itae-dir", str(trained_run / "itae"),
                 *BASE_FLAGS, f"--use-{dropped}-flow", "false"]
        assert main(["train-nf", "--data-path", str(scene / "train"), *flags]) == 0
        assert (out / f"nf_{kept}").exists()
        assert not (out / f"nf_{dropped}").exists()
        # scoring with the one flow: the absent stream reads zero and the
        # present one alone makes the likelihood term
        assert main(["score", "--data-path", str(scene / "test"), *flags]) == 0
        rows = np.genfromtxt(out / "scores" / "test.csv", delimiter=",", names=True)
        assert np.all(rows[f"nll_{dropped}"] == 0.0)
        nll = rows[f"nll_{kept}"]
        assert nll.max() > nll.min()
        norm = (nll - nll.min()) / (nll.max() - nll.min())
        assert np.allclose(rows["fused"], rows["recon"] + 0.3 * norm, atol=1e-12)

    def test_nf_divergence_exit_code(self, scene, trained_run, tmp_path):
        # in a fresh interpreter, so that any NumPy warning would reach stderr
        out = tmp_path / "div"
        out.mkdir()
        argv = ["train-nf", "--data-path", str(scene / "train"),
                "--itae-dir", str(trained_run / "itae"),
                "--out-dir", str(out), *BASE_FLAGS,
                "--nf-steps", "60", "--nf-lr", "500.0"]
        code = f"import sys; from flowvad.cli import main; sys.exit(main({argv!r}))"
        proc = _run_in_subprocess(code)
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric abort: "), proc.stderr

    def test_64x64_train_itae_writes_nothing_to_stderr(self, tmp_path):
        # 64x64 frames take 3 of the 5 MS-SSIM scales; in a fresh
        # interpreter, where any Python or NumPy warning would reach stderr
        video = packed_video(tmp_path / "v.t5", 64, frames=8)
        argv = ["train-itae", "--data-path", str(video), "--out-dir", str(tmp_path / "out"),
                *BASE_FLAGS, "--itae-steps", "1"]
        code = f"import sys; from flowvad.cli import main; sys.exit(main({argv!r}))"
        proc = _run_in_subprocess(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_missing_data_path(self, capsys):
        rc = main(["train-itae", *BASE_FLAGS])
        assert rc == 2
        assert "data_path" in capsys.readouterr().err


@pytest.fixture(scope="module")
def scored(scene, trained_run):
    rc = main(["score", "--data-path", str(scene / "test"),
               "--out-dir", str(trained_run), *BASE_FLAGS])
    assert rc == 0
    return trained_run / "scores" / "test.csv"


class TestScoreEval:
    def test_csv_shape(self, scored):
        lines = scored.read_text().splitlines()
        assert lines[0] == "frame_index,recon,nll_static,nll_dynamic,fused,label"
        assert len(lines) == 33
        first = lines[1].split(",")
        assert first[0] == "0" and first[5] in ("0", "1")

    def test_score_bytes_deterministic(self, scene, trained_run, scored, tmp_path):
        rc = main(["score", "--data-path", str(scene / "test"),
                   "--out-dir", str(trained_run), *BASE_FLAGS])
        assert rc == 0
        again = (trained_run / "scores" / "test.csv").read_bytes()
        assert again == scored.read_bytes()

    def test_fused_matches_lambda_rule(self, scored):
        rows = np.genfromtxt(scored, delimiter=",", names=True)
        nll = rows["nll_static"] + rows["nll_dynamic"]
        norm = (nll - nll.min()) / (nll.max() - nll.min())
        want = rows["recon"] + 0.3 * norm  # default lambda_l
        assert np.allclose(rows["fused"], want, atol=1e-12)

    def test_eval_output(self, scored, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(["eval", str(scored), "--out", str(out)])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(record) == {"auc", "eer", "n_frames", "auc_recon", "auc_nll",
                               "auc_nll_static", "auc_nll_dynamic"}
        assert record["n_frames"] == 32
        assert json.loads(out.read_text()) == record

    def test_eval_rejects_unlabeled(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        path.write_text(
            "frame_index,recon,nll_static,nll_dynamic,fused,label\n"
            "0,0.1,0.0,0.0,0.1,-1\n1,0.2,0.0,0.0,0.2,0\n"
        )
        rc = main(["eval", str(path)])
        assert rc == 2
        assert "unlabeled" in capsys.readouterr().err

    def test_sweep_grid(self, scored, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-lambda", str(scored), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,auc,eer"
        assert len(lines) == 7  # default six-point grid
        printed = capsys.readouterr().out
        assert printed.count("lambda ") == 6

    def test_sweep_recovers_eval_metrics(self, scored, capsys):
        assert main(["eval", str(scored)]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert main(["sweep-lambda", str(scored), "--grid", "0.3"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        swept_auc = float(line.split("auc")[1].split()[0])
        assert swept_auc == pytest.approx(record["auc"], abs=1e-4)

    def test_eval_perfect_separation(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        rows = ["frame_index,recon,nll_static,nll_dynamic,fused,label"]
        for i in range(10):
            label = 1 if i >= 5 else 0
            rows.append(f"{i},0.0,0.0,0.0,{label}.5,{label}")
        path.write_text("\n".join(rows) + "\n")
        assert main(["eval", str(path)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["auc"] == pytest.approx(1.0)
        assert record["eer"] == pytest.approx(0.0)

    def test_eval_reports_each_score_term(self, tmp_path, capsys):
        # Two videos, labels 0 0 1 1 each. AUCs by counting (positive,
        # negative) pairs, ties half: recon 10/16; raw static NLL 12/16;
        # raw dynamic NLL 6/16; the per-video min-max of static + dynamic
        # 11/16 (video b's sum is constant, so it normalizes to zeros);
        # the fused column separates the classes.
        columns = {
            "a": ([0.1, 0.4, 0.2, 0.3], [1, 2, 3, 4], [0, 0, 0, 0]),
            "b": ([0.5, 0.6, 0.7, 0.8], [100, 101, 102, 103], [4, 3, 2, 1]),
        }
        paths = []
        for name, (recon, static, dynamic) in columns.items():
            rows = ["frame_index,recon,nll_static,nll_dynamic,fused,label"]
            for i, label in enumerate([0, 0, 1, 1]):
                rows.append(f"{i},{recon[i]},{static[i]},{dynamic[i]},{label},{label}")
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text("\n".join(rows) + "\n")
        assert main(["eval", *map(str, paths)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record == {
            "auc": 1.0, "eer": 0.0, "n_frames": 8, "auc_recon": 0.625, "auc_nll": 0.6875,
            "auc_nll_static": 0.75, "auc_nll_dynamic": 0.375,
        }


def write_score_csv(path, labels):
    rows = ["frame_index,recon,nll_static,nll_dynamic,fused,label"]
    rows += [f"{i},0.{i},0.0,0.0,0.{i},{lab}" for i, lab in enumerate(labels)]
    path.write_text("\n".join(rows) + "\n")


def checkpoint_flags(run):
    return ["--itae-dir", str(run / "itae"), "--static-dir", str(run / "nf_static"),
            "--dynamic-dir", str(run / "nf_dynamic")]


class TestInputErrors:
    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_one_class_labels_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "normal.csv"
        write_score_csv(path, [0] * 6)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "both normal" in err

    def test_non_integer_labels_file_exit_2(self, scene, trained_run, tmp_path, capsys):
        video = tmp_path / "bad"
        shutil.copytree(scene / "test" / "frames", video / "frames")
        (video / "labels.txt").write_text("0\n" * 5 + "abnormal\n" + "1\n" * 26)
        rc = main(["score", "--data-path", str(video), "--out-dir", str(tmp_path / "out"),
                   *checkpoint_flags(trained_run), *BASE_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "integers" in err
        assert not (tmp_path / "out" / "scores" / "bad.csv").exists()

    def test_score_refuses_colliding_video_names(self, scene, trained_run, tmp_path, capsys):
        data = tmp_path / "data"
        for group in ("a", "b"):
            shutil.copytree(scene / "test", data / group / "scene0")
        out = tmp_path / "out"
        rc = main(["score", "--data-path", str(data), "--out-dir", str(out),
                   *checkpoint_flags(trained_run), *BASE_FLAGS])
        assert rc == 2
        assert "scores/scene0.csv" in capsys.readouterr().err
        assert not (out / "scores").exists()

    def test_score_refuses_one_label_file_for_many_videos(
        self, scene, trained_run, tmp_path, capsys
    ):
        data = tmp_path / "data"
        for name in ("first", "second"):
            shutil.copytree(scene / "test", data / name)
        out = tmp_path / "out"
        rc = main(["score", "--data-path", str(data), "--out-dir", str(out),
                   "--label-path", str(scene / "test" / "labels.txt"),
                   *checkpoint_flags(trained_run), *BASE_FLAGS])
        assert rc == 2
        assert "label_path" in capsys.readouterr().err
        assert not (out / "scores").exists()

    @pytest.mark.parametrize("command", ["train-itae", "train-nf", "score"])
    def test_nonexistent_data_path_exit_2(self, trained_run, tmp_path, capsys, command):
        missing = tmp_path / "no_such_dir"
        extra = [] if command == "train-itae" else checkpoint_flags(trained_run)[:2]
        rc = main([command, "--data-path", str(missing), "--out-dir", str(tmp_path / "out"),
                   *extra, *BASE_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(missing) in err

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_non_numeric_score_cell_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frame_index,recon,nll_static,nll_dynamic,fused,label\n"
            "0,0.1,0.0,0.0,0.1,0\n1,0.2,0.0,0.0,0.2,1\n2,0.3,0.0,0.0,abc,0\n"
        )
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert str(path) in err and "row 3" in err and "fused" in err and "'abc'" in err

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_fractional_label_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "frac.csv"
        path.write_text(
            "frame_index,recon,nll_static,nll_dynamic,fused,label\n"
            "0,0.1,0.0,0.0,0.1,0\n1,0.2,0.0,0.0,0.2,1\n2,0.3,0.0,0.0,0.3,0.7\n"
            "3,0.4,0.0,0.0,0.4,1\n"
        )
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert str(path) in err and "row 3" in err and "label" in err and "'0.7'" in err

    @pytest.mark.parametrize("bad_row, problem", [
        ("2,0.3,0.0,0.0,0.3", "column label: 5 cells, expected 6"),
        ("2,0.3,0.0,0.0,0.3,0,7", "column 7: 7 cells, expected 6"),
        ("", "column frame_index: 0 cells, expected 6"),
        ("2,0.3,0.0,0.0,nan,0", "column fused: 'nan' is not finite"),
        ("2,inf,0.0,0.0,0.3,0", "column recon: 'inf' is not finite"),
        ("2,0.3,0.0,0.0,0.3,2", "column label: '2' is not a label"),
    ], ids=["short-row", "long-row", "empty-row", "nan-fused", "inf-recon", "label-2"])
    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_broken_score_csv_exit_2(self, tmp_path, capsys, command, bad_row, problem):
        path = tmp_path / "broken.csv"
        write_score_csv(path, [0, 1])
        path.write_text(path.read_text() + bad_row + "\n3,0.4,0.0,0.0,0.4,1\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"{path}: row 3 (line 4), {problem}" in err

    @pytest.mark.parametrize("damage", ["missing", "non-utf8", "too-few"])
    def test_score_label_file_exit_2(self, scene, trained_run, tmp_path, capsys, damage):
        data = tmp_path / "data"
        for name in ("first", "second"):
            shutil.copytree(scene / "test", data / name)
        labels = data / "second" / "labels.txt"
        flags = []
        if damage == "missing":
            data = data / "first"
            labels = tmp_path / "no_such_labels.txt"
            flags = ["--label-path", str(labels)]
        elif damage == "non-utf8":
            labels.write_bytes(b"0\n\xff\n")
        else:
            labels.write_text("0\n" * 31)
        out = tmp_path / "out"
        err = refuse(capsys, out, "score", "--data-path", str(data), *flags,
                     *checkpoint_flags(trained_run))
        assert str(labels) in err
        assert not (out / "scores").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("train-nf", "--itae-dir"), ("score", "--static-dir"), ("score", "--dynamic-dir")],
    )
    def test_missing_checkpoint_dir_exit_2(
        self, scene, trained_run, tmp_path, capsys, command, flag
    ):
        missing = tmp_path / "no_checkpoint"
        flags = checkpoint_flags(trained_run)
        flags[flags.index(flag) + 1] = str(missing)
        if command == "train-nf":
            flags = flags[:2]
        data = scene / ("train" if command == "train-nf" else "test")
        out = tmp_path / "out"
        rc = main([command, "--data-path", str(data), "--out-dir", str(out),
                   *flags, *BASE_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(missing) in err
        assert not (out / "scores").exists()
        assert not (out / "nf_static").exists()

    def test_packed_pixel_out_of_range_exit_2(self, tmp_path, capsys):
        video = tmp_path / "bright.t5"
        arr = np.full((1, 1, 16, 32, 32), 0.5)
        arr[0, 0, 3, 5, 7] = 2.0
        save_tensor(video, arr)
        err = refuse(capsys, tmp_path / "out", "train-itae", "--data-path", str(video))
        assert str(video) in err and "outside [0, 1]" in err

    def test_truncated_packed_video_exit_2(self, tmp_path, capsys):
        video = packed_video(tmp_path / "cut.t5", 32)
        video.write_bytes(video.read_bytes()[:24])  # the header alone
        err = refuse(capsys, tmp_path / "out", "train-itae", "--data-path", str(video))
        assert str(video) in err

    @pytest.mark.parametrize("command", ["score", "train-itae"])
    @pytest.mark.parametrize("dims", [(1, 1, 0, 64, 64), (1, 1, 8, 64, 0)],
                             ids=["no-frames", "zero-width"])
    def test_zero_length_packed_video_exit_2(self, tmp_path, capsys, command, dims):
        video = tmp_path / "empty.t5"
        video.write_bytes(struct.pack("<4s5I", b"T5v1", *dims))  # header, empty payload
        out = tmp_path / "out"
        err = refuse(capsys, out, command, "--data-path", str(video))
        assert f"{video}: packed video has a zero-length dim" in err
        assert not out.exists()

    def test_resize_by_non_integer_factor_exit_2(self, tmp_path, capsys):
        video = packed_video(tmp_path / "v48.t5", 48)
        err = refuse(capsys, tmp_path / "out", "train-itae", "--data-path", str(video),
                     "--resize-h", "32", "--resize-w", "32")
        assert str(video) in err and "must divide" in err

    def test_patch_larger_than_frames_exit_2(self, small_run, tmp_path, capsys):
        video = small_run / "v20.t5"
        out = tmp_path / "out"
        err = refuse(capsys, out, "score", "--data-path", str(video),
                     "--itae-dir", str(small_run / "itae"), *FLOWS_OFF, "--patch-size", "24")
        assert str(video) in err and "patch_size 24" in err
        assert not (out / "scores").exists()

    @pytest.mark.parametrize("flag", ["--static-dir", "--dynamic-dir"])
    def test_flow_dir_for_disabled_stream_exit_2(self, small_run, tmp_path, capsys, flag):
        flow_dir = tmp_path / "nf"
        out = tmp_path / "out"
        err = refuse(capsys, out, "score", "--data-path", str(small_run / "v20.t5"),
                     "--itae-dir", str(small_run / "itae"), *FLOWS_OFF, flag, str(flow_dir))
        assert f"{flag} {flow_dir}" in err
        assert not (out / "scores").exists()

    def test_missing_config_file_exit_2(self, scene, tmp_path, capsys):
        missing = tmp_path / "no_such.cfg"
        err = refuse(capsys, tmp_path / "out", "train-itae",
                     "--data-path", str(scene / "train"), "--config", str(missing))
        assert str(missing) in err

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_missing_score_csv_exit_2(self, tmp_path, capsys, command):
        present = tmp_path / "present.csv"
        write_score_csv(present, [0, 1, 0, 1])
        missing = tmp_path / "no_such.csv"
        assert main([command, str(present), str(missing)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(missing) in err

    @pytest.mark.parametrize("flag", ["--lambda-l", "--itae-lr", "--nf-lr"])
    @pytest.mark.parametrize("command", ["train-itae", "train-nf", "score"])
    def test_non_finite_rate_or_weight_exit_2(self, tmp_path, capsys, command, flag):
        video = packed_video(tmp_path / "v.t5", 16)
        err = refuse(capsys, tmp_path / "out", command, "--data-path", str(video), flag, "nan")
        assert f"{flag[2:].replace('-', '_')} must be a finite number >= 0, got nan" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["nan", "inf", "-1", "0.3,nan"])
    def test_sweep_grid_value_not_finite_or_negative_exit_2(self, tmp_path, capsys, grid):
        path = tmp_path / "s.csv"
        write_score_csv(path, [0, 1, 0, 1])
        assert main(["sweep-lambda", str(path), "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert "config error: --grid value must be a finite number >= 0" in captured.err
        assert "lambda" not in captured.out

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_out_that_is_a_directory_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "s.csv"
        write_score_csv(path, [0, 1, 0, 1])
        out = tmp_path / "adir"
        out.mkdir()
        assert main([command, str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: --out {out} is a directory" in captured.err
        assert captured.out == "" and not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train-nf", "--flow-hidden", "0"),
            ("train-nf", "--flow-hidden", "-1"),
            ("train-itae", "--seed", "-1"),
            ("train-nf", "--seed", "-1"),
            ("score", "--seed", "-1"),
        ],
    )
    def test_number_below_its_least_value_exit_2(self, tmp_path, capsys, command, flag, value):
        video = packed_video(tmp_path / "v.t5", 16)
        err = refuse(capsys, tmp_path / "out", command, "--data-path", str(video), flag, value)
        name = flag[2:].replace("-", "_")
        assert err == f"config error: {name} must be >= {LEAST_VALUE[name]}, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-itae", "train-nf", "score"])
    def test_out_dir_that_is_a_file_exit_2(self, tmp_path, capsys, command):
        video = packed_video(tmp_path / "v.t5", 16)
        out = tmp_path / "out"
        out.write_text("keep\n")
        err = refuse(capsys, out, command, "--data-path", str(video))
        assert err == f"config error: out_dir {out} is not a directory\n"
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "command, blocked, what",
        [
            ("train-itae", "itae", "checkpoint directory"),
            ("train-nf", "nf_dynamic", "checkpoint directory"),
            ("score", "scores", "score directory"),
        ],
    )
    def test_output_directory_that_is_a_file_exit_2(
        self, scene, tmp_path, capsys, command, blocked, what
    ):
        # refused before any video or checkpoint is read: out_dir holds no
        # checkpoint, which would otherwise be the first error
        out = tmp_path / "out"
        out.mkdir()
        (out / blocked).write_text("keep\n")
        err = refuse(capsys, out, command, "--data-path", str(scene / "train"))
        assert err == f"config error: {what} {out / blocked} is not a directory\n"
        assert [p.name for p in out.iterdir()] == [blocked]
        assert (out / blocked).read_text() == "keep\n"

    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("train-itae", "config.cfg"),
            ("train-itae", "itae_loss.csv"),
            ("train-itae", "itae/params.t5"),
            ("train-itae", "itae/manifest.json"),
            ("train-itae", "itae/params.t5.tmp"),
            ("train-nf", "config.cfg"),
            ("train-nf", "nf_static_loss.csv"),
            ("train-nf", "nf_dynamic/params.t5"),
            ("train-nf", "nf_static/manifest.json"),
            ("train-nf", "nf_static/manifest.json.tmp"),
            ("score", "config.cfg"),
            ("score", "scores/test.csv"),
        ],
    )
    def test_output_file_that_is_a_directory_exit_2(
        self, scene, trained_run, tmp_path, capsys, command, blocked
    ):
        # the checkpoints each command reads are in place, so without the
        # refusal it would run to the write of the blocked file
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        reads = {"train-itae": [], "train-nf": checkpoint_flags(trained_run)[:2],
                 "score": checkpoint_flags(trained_run)}[command]
        data = scene / ("test" if command == "score" else "train")
        err = refuse(capsys, out, command, "--data-path", str(data), *reads)
        assert err == f"config error: output file {out / blocked} is a directory\n"
        made = {Path(blocked), *Path(blocked).parents} - {Path(".")}
        assert {p.relative_to(out) for p in out.rglob("*")} == made

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_out_in_missing_directory_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "s.csv"
        write_score_csv(path, [0, 1, 0, 1])
        out = tmp_path / "no" / "such" / "x.csv"
        assert main([command, str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: --out {out}: directory {out.parent} does not exist" in captured.err
        assert captured.out == "" and not out.parent.exists()

    def test_non_utf8_config_file_exit_2(self, scene, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(bytes(range(256)))
        err = refuse(capsys, tmp_path / "out", "train-itae",
                     "--data-path", str(scene / "train"), "--config", str(config))
        assert str(config) in err and "UTF-8" in err

    @pytest.mark.parametrize("command", ["eval", "sweep-lambda"])
    def test_non_utf8_score_csv_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "latin.csv"
        write_score_csv(path, [0, 1, 0, 1])
        path.write_bytes(path.read_bytes() + b"4,0.\xe9,0.0,0.0,0.4,1\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(path) in err and "UTF-8" in err

    @pytest.mark.parametrize("damage", ["truncated-tensor", "manifest-not-json"])
    @pytest.mark.parametrize("command", ["train-nf", "score"])
    def test_corrupt_checkpoint_exit_2(
        self, scene, trained_run, tmp_path, capsys, command, damage
    ):
        itae = tmp_path / "itae"
        shutil.copytree(trained_run / "itae", itae)
        if damage == "truncated-tensor":
            broken = itae / "params.t5"
            broken.write_bytes(broken.read_bytes()[:10])
        else:
            broken = itae / "manifest.json"
            broken.write_text('{"format": "flowvad-checkpoint-v2", "parameters": ')
        flags = checkpoint_flags(trained_run)
        flags[1] = str(itae)
        if command == "train-nf":
            flags = flags[:2]
        data = scene / ("train" if command == "train-nf" else "test")
        out = tmp_path / "out"
        err = refuse(capsys, out, command, "--data-path", str(data), *flags)
        assert str(broken) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage", ["permuted-shape", "missing-entry", "nan-video", "inf-weight"]
    )
    def test_stored_data_that_does_not_fit_exit_2(
        self, scene, trained_run, tmp_path, capsys, damage
    ):
        itae = tmp_path / "itae"
        shutil.copytree(trained_run / "itae", itae)
        manifest_path = itae / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        command, data, named = "score", scene / "test", itae
        if damage == "permuted-shape":
            shapes = manifest["parameters"]
            shapes["decode4.weight"] = shapes["decode4.weight"][::-1]
        elif damage == "missing-entry":
            del manifest["parameters"]["decode4.bias"]
        elif damage == "nan-video":
            arr = np.full((1, 1, 16, 32, 32), 0.5)
            arr[0, 0, 3, 5, 7] = np.nan
            command, data = "train-itae", tmp_path / "nanvid.t5"
            save_tensor(data, arr)
            named = data
        else:
            named = itae / "params.t5"
            overwrite_slot(itae, "decode4.bias", np.inf)
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        flags = checkpoint_flags(trained_run) if command == "score" else []
        if flags:
            flags[1] = str(itae)
        err = refuse(capsys, out, command, "--data-path", str(data), *flags)
        assert str(named) in err
        if damage == "inf-weight":
            assert "decode4.bias" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            ("shape-not-int", lambda m: m["parameters"].update({"decode4.bias": ["x"]})),
            ("shape-bool", lambda m: m["parameters"].update({"decode4.bias": [True]})),
            ("shape-negative", lambda m: m["parameters"].update({"decode4.bias": [-1]})),
            ("shape-not-list", lambda m: m["parameters"].update({"decode4.bias": "1"})),
            ("entry-is-object",
             lambda m: m["parameters"].update({"decode4.bias": {"shape": [16]}})),
            ("no-parameters", lambda m: m.pop("parameters")),
            ("parameters-not-object", lambda m: m.update(parameters=[])),
            ("no-fingerprint", lambda m: m.pop("fingerprint")),
            ("fingerprint-not-str", lambda m: m.update(fingerprint=1)),
        ],
        ids=lambda case: case[0],
    )
    def test_malformed_manifest_exit_2(self, scene, trained_run, tmp_path, capsys, damage):
        itae = tmp_path / "itae"
        shutil.copytree(trained_run / "itae", itae)
        manifest_path = itae / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        damage[1](manifest)
        manifest_path.write_text(json.dumps(manifest))
        flags = checkpoint_flags(trained_run)
        flags[1] = str(itae)
        out = tmp_path / "out"
        err = refuse(capsys, out, "score", "--data-path", str(scene / "test"), *flags)
        assert str(manifest_path) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "trailing-bytes", "size-mismatch", "nan-in-slot", "params-missing",
         "params-is-directory", "manifest-is-directory", "v1-manifest"],
    )
    def test_damaged_checkpoint_file_exit_2(self, scene, trained_run, tmp_path, capsys, damage):
        """Each damage to a checkpoint's two files ends in exactly one
        `config error:` line that names the file, and nothing is written."""
        itae = tmp_path / "itae"
        shutil.copytree(trained_run / "itae", itae)
        params, manifest_path = itae / "params.t5", itae / "manifest.json"
        named, why = params, ""
        if damage == "truncated":
            params.write_bytes(params.read_bytes()[:-8])
        elif damage == "trailing-bytes":
            params.write_bytes(params.read_bytes() + bytes(8))
        elif damage == "size-mismatch":  # a well-formed tensor one value longer
            save_tensor(params, np.zeros((params.stat().st_size - 24) // 8 + 1))
        elif damage == "nan-in-slot":
            overwrite_slot(itae, "static1.weight", np.nan, where=-1)
            why = "static1.weight"
        elif damage in ("params-missing", "params-is-directory"):
            params.unlink()
            if damage == "params-is-directory":
                params.mkdir()
        elif damage == "manifest-is-directory":
            manifest_path.unlink()
            manifest_path.mkdir()
            named = manifest_path
        else:  # the per-parameter layout: one file per entry, named in the manifest
            manifest = json.loads(manifest_path.read_text())
            manifest["format"] = "flowvad-checkpoint-v1"
            manifest["parameters"] = {
                name: {"file": name.replace(".", "_") + ".t5", "shape": shape}
                for name, shape in manifest["parameters"].items()
            }
            manifest_path.write_text(json.dumps(manifest))
            named, why = manifest_path, "per-parameter layout"
        flags = checkpoint_flags(trained_run)
        flags[1] = str(itae)
        out = tmp_path / "out"
        assert main(["score", "--out-dir", str(out), "--data-path", str(scene / "test"),
                     *BASE_FLAGS, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("config error:") and str(named) in line and why in line
        assert not out.exists()


def overwrite_slot(ckpt, name, value, where=slice(None)):
    """Set ``where`` of parameter ``name``'s values in ``ckpt/params.t5`` to
    ``value``; the slot follows from the manifest's shapes in sorted name order."""
    shapes = json.loads((ckpt / "manifest.json").read_text())["parameters"]
    names = sorted(shapes)
    start = 24 + 8 * sum(math.prod(shapes[n]) for n in names[: names.index(name)])
    with open(ckpt / "params.t5", "r+b") as fh:
        fh.seek(start)
        slot = np.frombuffer(fh.read(8 * math.prod(shapes[name])), "<f8").copy()
        slot[where] = value
        fh.seek(start)
        fh.write(slot.tobytes())


FLOWS_OFF = ["--use-static-flow", "false", "--use-dynamic-flow", "false"]


def packed_video(path, side, frames=16, seed=0):
    """Write a random gray (1, 1, frames, side, side) video as a .t5 file."""
    save_tensor(path, np.random.default_rng(seed).uniform(size=(1, 1, frames, side, side)))
    return path


def refuse(capsys, out, command, *flags):
    """Run a command that must exit 2 on `config error:` lines; returns stderr."""
    assert main([command, "--out-dir", str(out), *BASE_FLAGS, *flags]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    return err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Native 20x20 frames with both flows off: train-itae, then score."""
    out = tmp_path_factory.mktemp("small_run")
    video = packed_video(out / "v20.t5", 20)
    for command in ("train-itae", "score"):
        assert main([command, "--data-path", str(video), "--out-dir", str(out),
                     *BASE_FLAGS, *FLOWS_OFF]) == 0
    return out


class TestFrameGeometry:
    """One frame-size rule: multiples of 4, times 2 per flow level when a
    flow is on, refused before any training step."""

    @pytest.mark.parametrize(
        "side, flags, problem",
        [
            (32, ["--resize-h", "24", "--resize-w", "24"], "resized frames 24x24"),
            (20, [], "v20.t5: loaded frames 20x20"),
            (30, FLOWS_OFF, "v30.t5: loaded frames 30x30"),
            (32, ["--score-stride", "12", "--clip-len", "8"], "score_stride 12 above clip_len 8"),
        ],
        ids=["resize-24-two-levels", "native-20-flows-on", "native-30", "score-stride-12"],
    )
    def test_refused_before_training(self, tmp_path, capsys, side, flags, problem):
        video = packed_video(tmp_path / f"v{side}.t5", side)
        out = tmp_path / "out"
        assert problem in refuse(capsys, out, "train-itae", "--data-path", str(video), *flags)
        assert not (out / "itae").exists()

    @pytest.mark.parametrize(
        "side, flags, kind",
        [(16, ["--resize-h", "8", "--resize-w", "8"], "resized"), (8, [], "v8.t5: loaded")],
        ids=["resize-8", "native-8"],
    )
    def test_frames_below_the_ssim_window_refused(self, tmp_path, capsys, side, flags, kind):
        # with both flows off the grain is 4, so only the window refuses 8x8
        video = packed_video(tmp_path / f"v{side}.t5", side)
        out = tmp_path / "out"
        err = refuse(capsys, out, "train-itae", "--data-path", str(video), "--patch-size", "4",
                     *FLOWS_OFF, *flags)
        assert f"{kind} frames 8x8 are smaller than the {SSIM_WINDOW}-pixel MS-SSIM window" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "side, flags",
        [
            (64, ["--resize-h", "32", "--resize-w", "32"]),
            (48, ["--resize-h", "24", "--resize-w", "24", "--flow-levels", "1"]),
        ],
        ids=["resize-32-two-levels", "resize-24-one-level"],
    )
    def test_accepted_through_train_nf(self, tmp_path, side, flags):
        video = packed_video(tmp_path / f"v{side}.t5", side)
        out = tmp_path / "out"
        for command in ("train-itae", "train-nf"):
            assert main([command, "--data-path", str(video), "--out-dir", str(out),
                         *BASE_FLAGS, *flags]) == 0
        assert (out / "nf_static" / "manifest.json").exists()
        assert (out / "nf_dynamic" / "manifest.json").exists()

    @pytest.mark.parametrize("command, output", [
        ("train-itae", "itae"), ("train-nf", "nf_static"), ("score", "scores"),
    ])
    def test_short_video_refused_by_every_command(
        self, trained_run, tmp_path, capsys, command, output
    ):
        data = tmp_path / "data"
        data.mkdir()
        packed_video(data / "ok.t5", 32)
        short = packed_video(data / "short.t5", 32, frames=4)
        extra = {"train-itae": 0, "train-nf": 2, "score": 6}[command]
        out = tmp_path / "out"
        err = refuse(capsys, out, command, "--data-path", str(data),
                     *checkpoint_flags(trained_run)[:extra])
        assert f"{short}: video has 4 frames, need at least 8" in err
        assert not (out / output).exists()

    def test_native_20_without_flows_trains_and_scores(self, small_run):
        lines = (small_run / "scores" / "v20.csv").read_text().splitlines()
        assert len(lines) == 17  # header + 16 frames


def _artifact_hashes(out):
    """sha256 of every checkpoint tensor, manifest, loss log and score CSV under ``out``."""
    paths = set()
    for pattern in ("**/*.t5", "**/manifest.json", "*_loss.csv", "scores/*.csv"):
        paths.update(out.glob(pattern))
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
    }


def test_same_seed_reproduces_artifacts_byte_for_byte(scene, tmp_path):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command, data in (("train-itae", "train"), ("train-nf", "train"), ("score", "test")):
            assert main([command, "--data-path", str(scene / data), "--out-dir", str(out),
                         *BASE_FLAGS]) == 0
        runs.append(_artifact_hashes(out))
    assert {"itae/manifest.json", "nf_static/manifest.json", "nf_dynamic/manifest.json",
            "itae_loss.csv", "nf_static_loss.csv", "nf_dynamic_loss.csv",
            "scores/test.csv"} <= set(runs[0])
    assert sum(key.endswith(".t5") for key in runs[0]) > 0
    assert runs[0] == runs[1]
    for kind in ("itae", "nf_static", "nf_dynamic"):
        assert {p.name for p in (tmp_path / "first" / kind).iterdir()} == {
            "manifest.json", "params.t5"}, kind


def _run_in_subprocess(code, **env):
    """Run python ``code`` in a fresh interpreter that imports this flowvad,
    with ``env`` added to the environment before anything loads."""
    src = str(Path(flowvad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=600,
    )


class TestSettings:
    """A run's settings: the config file, then a preset, then the flags, read
    and validated once."""

    def test_file_then_preset_then_flags(self, tmp_path):
        video = packed_video(tmp_path / "v.t5", 16)
        config = tmp_path / "run.cfg"
        config.write_text("nf_lr = 0.001\nflow_hidden = 8\n")
        out = tmp_path / "out"
        assert main(["train-itae", "--config", str(config), "--preset", "large-scene",
                     "--itae-lr", "0.002", "--itae-steps", "1", "--data-path", str(video),
                     "--out-dir", str(out)]) == 0
        cfg = parse_config((out / "config.cfg").read_text())
        assert (cfg.itae_batch, cfg.itae_lr, cfg.nf_lr, cfg.flow_hidden) == (8, 0.002, 1e-4, 8)

    @pytest.mark.parametrize(
        "text, problems",
        [
            ("nf_lr = -1\n", ["itae_steps must be >= 1, got 0",
                              "nf_lr must be a finite number >= 0, got -1.0"]),
            ("nf_lr = -1\ntau = x\n", ["tau: cannot parse 'x' as int",
                                        "nf_lr must be a finite number >= 0, got -1.0",
                                        "itae_steps must be >= 1, got 0"]),
        ],
    )
    def test_file_and_flag_problems_reported_together(self, tmp_path, capsys, text, problems):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        err = refuse(capsys, out, "train-itae", "--data-path", str(tmp_path / "v.t5"),
                     "--config", str(config), "--itae-steps", "0")
        assert err.splitlines() == [f"config error: {p}" for p in problems]
        assert not out.exists()

    def test_help_names_each_setting_type(self, capsys):
        with pytest.raises(SystemExit):
            main(["score", "--help"])
        out = capsys.readouterr().out
        for f in dataclasses.fields(RunConfig):
            assert f"--{f.name.replace('_', '-')} {f.type.__name__.upper()}" in out


def test_cli_loads_no_scipy():
    proc = _run_in_subprocess(
        "import sys, flowvad.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_tensor_has_no_elementwise_layer():
    """Without the tests' graph_ops, the engine defines no generic
    elementwise op or helper, no slicing, sigmoid or concat node, and
    ``Tensor.mean`` reduces the whole array."""
    methods = ("__add__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__pow__", "abs", "clamp_min", "sum", "reshape", "transpose", "__getitem__",
               "sigmoid")
    helpers = ("_binary", "_broadcast_ok", "_unbroadcast", "_add_back", "_sub_back",
               "_mul_back", "_div_back", "_checked_divide", "_check_finite", "_spread",
               "_axis_count", "_wrap", "_check_basic_index", "concat")
    proc = _run_in_subprocess(
        "import inspect, sys, flowvad.cli\n"
        "from flowvad import tensor\n"
        "assert 'graph_ops' not in sys.modules\n"
        f"print([n for n in {methods!r} if hasattr(tensor.Tensor, n)]"
        f" + [n for n in {helpers!r} if hasattr(tensor, n)])\n"
        "print(list(inspect.signature(tensor.Tensor.mean).parameters))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['self']"]


def test_blas_thread_count_moves_artifacts_by_rounding_only(scene, tmp_path):
    """The same seeded round trip at 1 and 2 OpenBLAS threads: byte identity
    holds only at one thread count, so across them every checkpoint parameter
    agrees within 1e-9 of its own largest value and every score column within
    1e-12 of its largest value."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        commands = [
            [command, "--data-path", str(scene / data), "--out-dir", str(out), *BASE_FLAGS]
            for command, data in (("train-itae", "train"), ("train-nf", "train"), ("score", "test"))
        ]
        code = f"from flowvad.cli import main\nfor argv in {commands!r}:\n    assert main(argv) == 0\n"
        proc = _run_in_subprocess(code, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    # the model configurations BASE_FLAGS give
    flows = dict(levels=2, steps=2, hidden=8)
    configs = {"itae": AutoencoderConfig(tau=4), "nf_static": FlowConfig(channels=3, **flows),
               "nf_dynamic": FlowConfig(channels=2, **flows)}
    for kind, model_config in configs.items():
        first, second = (load_checkpoint(out / kind, model_config) for out in outs)
        assert len(first) > 0 and first.keys() == second.keys(), kind
        for name, a in first.items():
            b = second[name]
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a)), name
    a, b = (np.loadtxt(out / "scores" / "test.csv", delimiter=",", skiprows=1) for out in outs)
    assert a.shape == b.shape and a.shape[0] == 32
    scale = np.max(np.abs(a), axis=0)
    assert np.all(np.max(np.abs(a - b), axis=0) <= 1e-12 * scale)
