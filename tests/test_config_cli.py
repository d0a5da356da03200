"""Configuration parsing and the command-line pipeline."""

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from flowvad.cli import main
from flowvad.config import (
    RunConfig,
    apply_preset,
    parse_config,
    serialize_config,
)
from flowvad.errors import ConfigError


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
        # 2 levels need divisibility by 8; 3 levels by 16
        parse_config("resize_h = 24\nresize_w = 24\nflow_levels = 2\n")
        with pytest.raises(ConfigError, match="divisible"):
            parse_config("resize_h = 24\nresize_w = 24\nflow_levels = 3\n")

    def test_validation_dynamic_flow_needs_dynamic_path(self):
        with pytest.raises(ConfigError, match="dynamic_path"):
            parse_config("dynamic_path = false\n")
        parse_config("dynamic_path = false\nuse_dynamic_flow = false\n")

    def test_presets(self):
        cfg = apply_preset(RunConfig(), "large-scene")
        assert cfg.itae_batch == 8 and cfg.itae_lr == pytest.approx(1e-2)
        with pytest.raises(ConfigError, match="unknown preset"):
            apply_preset(RunConfig(), "galactic")

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

    def test_nf_static_only_ablation(self, scene, tmp_path):
        out = tmp_path / "abl"
        assert main(["train-itae", "--data-path", str(scene / "train"),
                     "--out-dir", str(out), *BASE_FLAGS]) == 0
        assert main(["train-nf", "--data-path", str(scene / "train"),
                     "--out-dir", str(out), *BASE_FLAGS,
                     "--use-dynamic-flow", "false"]) == 0
        assert (out / "nf_static").exists()
        assert not (out / "nf_dynamic").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nf_divergence_exit_code(self, scene, trained_run, tmp_path, capsys):
        out = tmp_path / "div"
        out.mkdir()
        rc = main(["train-nf", "--data-path", str(scene / "train"),
                   "--itae-dir", str(trained_run / "itae"),
                   "--out-dir", str(out), *BASE_FLAGS,
                   "--nf-steps", "60", "--nf-lr", "500.0"])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err

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
        assert set(record) == {"auc", "eer", "n_frames"}
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
