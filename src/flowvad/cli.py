"""Command-line interface.

Subcommands drive the two-step pipeline end to end:

  gen-synth     render a synthetic scene with labeled anomaly spans
  train-itae    step one: fit the reconstruction model on normal clips
  train-nf      step two: fit density models on frozen features
  score         write per-frame score CSVs for each video
  eval          AUC / EER from score CSVs
  sweep-lambda  re-fuse scores over a grid of fusion weights

Every RunConfig key is also a flag (--clip-len, --tau, ...). A run's settings
are the config file, overridden by a preset, overridden by the flags, parsed
and validated once. Exit codes: 0 success, 2 configuration or input error,
3 numeric abort.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .autoencoder import AutoencoderConfig, TwoPathAutoencoder
from .checkpoint import checkpoint_files, checkpoint_hash, load_checkpoint, save_checkpoint
from .clips import ClipSpec, iter_clips, load_video
from .config import PRESETS, RunConfig, bound_problems, parse_config, write_config
from .errors import ConfigError, NumericError, ShapeError, TrainingAborted
from .flow import FlowConfig, FlowStack
from .pipeline import STREAMS, collect_flow_samples, score_video
from .scoring import fuse, nll_score, roc_auc_eer
from .synthetic import (
    AnomalySpan,
    SceneConfig,
    generate_scene,
    parse_labels,
    write_scene,
)
from .train import TrainConfig, train_autoencoder, train_flow

SCORE_HEADER = ["frame_index", "recon", "nll_static", "nll_dynamic", "fused", "label"]
CONFIG_FILE = "config.cfg"  # the resolved settings, written into out_dir
LAMBDA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (TrainingAborted, NumericError) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowvad",
        description="Two-path video autoencoder with flow-based normality scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="render a synthetic labeled scene")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-frames", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--canvas", type=int, default=64)
    p.add_argument("--objects", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument(
        "--anomaly",
        action="append",
        default=[],
        metavar="START:END:MODE",
        help="labeled span, repeatable (modes: speed, shape, reverse)",
    )
    p.set_defaults(func=cmd_gen_synth)

    for name, func in (
        ("train-itae", cmd_train_itae),
        ("train-nf", cmd_train_nf),
        ("score", cmd_score),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS))
        _add_config_flags(p)
        if name != "train-itae":
            p.add_argument("--itae-dir", help="reconstruction checkpoint directory")
        if name == "score":
            p.add_argument("--static-dir", help="static density checkpoint directory")
            p.add_argument("--dynamic-dir", help="dynamic density checkpoint directory")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="AUC/EER from score CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", help="also write the metrics record here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-lambda", help="metrics over a fusion-weight grid")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--grid", default=",".join(str(v) for v in LAMBDA_GRID))
    p.add_argument("--out", help="also write the per-weight table here")
    p.set_defaults(func=cmd_sweep)

    return parser


def _add_config_flags(parser):
    group = parser.add_argument_group("configuration overrides")
    for field in dataclasses.fields(RunConfig):
        group.add_argument(
            "--" + field.name.replace("_", "-"),
            dest=f"cfg_{field.name}",
            default=None,
            metavar=field.type.__name__.upper(),
        )


def _resolve_config(args):
    """Parse the config file once, under the preset and then the flags."""
    overrides = dict(PRESETS.get(args.preset, {}))
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, f"cfg_{field.name}")
        if value is not None:
            overrides[field.name] = value
    text = _read_text(args.config, "config file") if args.config else ""
    config = parse_config(text, overrides)
    if not config.data_path:
        raise ConfigError(f"data_path is required for {args.command}")
    _check_out(config.out_dir, "out_dir", directory=True)
    _refuse_directories([os.path.join(config.out_dir, CONFIG_FILE)])
    return config


def _read_text(path, what):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None


def _model(config, channels=None):
    """The run's autoencoder, or with ``channels`` its density model over that
    many feature channels, seeded as in training; returns (model, its config)."""
    if channels is None:
        model_config = AutoencoderConfig(config.in_channels, config.tau, config.dynamic_path)
        return TwoPathAutoencoder(model_config, np.random.default_rng(config.seed)), model_config
    model_config = FlowConfig(channels, config.flow_levels, config.flow_steps, config.flow_hidden)
    return FlowStack(model_config, np.random.default_rng(config.seed + 1)), model_config


def _load(config, directory, channels=None):
    """A model as `_model` builds it, with the checkpoint in ``directory``."""
    model, model_config = _model(config, channels)
    try:
        model.load_state(load_checkpoint(directory, model_config))
    except ShapeError as exc:
        raise ConfigError(f"checkpoint {directory} does not fit the model: {exc}") from None
    return model


def _check_save(config, kind):
    """Refuse, before any work, a path that would stop `_save` of ``kind``."""
    ckpt = os.path.join(config.out_dir, kind)
    _check_out(ckpt, "checkpoint directory", directory=True)
    _refuse_directories([*checkpoint_files(ckpt), os.path.join(config.out_dir, f"{kind}_loss.csv")])


def _save(config, kind, model, model_config, curve):
    """Write checkpoint <out_dir>/<kind> and its loss curve <kind>_loss.csv."""
    ckpt = os.path.join(config.out_dir, kind)
    save_checkpoint(ckpt, model.named_parameters(), model_config, extra={"kind": kind})
    rows = [[repr(value) for value in row.values()] for row in curve]
    _write_rows(os.path.join(config.out_dir, f"{kind}_loss.csv"), list(curve[0]), rows)
    return ckpt


def _clip_spec(config, source):
    return ClipSpec(
        source=source,
        clip_len=config.clip_len,
        tau=config.tau,
        stride=config.clip_stride,
        resize=config.resize,
        color=config.color,
    )


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _refuse_directories(paths):
    """Refuse, before any work, each output file whose path is a directory."""
    if problems := [f"output file {path} is a directory" for path in paths if os.path.isdir(path)]:
        raise ConfigError(problems)


def _check_out(path, what="--out", directory=False):
    """Refuse an output path before any work: a file path that is a
    directory or whose directory does not exist, or a ``directory`` path
    that is, or lies under, something other than a directory."""
    if path and directory:
        blocker = os.path.abspath(path)
        while not os.path.exists(blocker):
            blocker = os.path.dirname(blocker)
        if not os.path.isdir(blocker):
            where = "" if blocker == os.path.abspath(path) else f": {blocker}"
            raise ConfigError(f"{what} {path}{where} is not a directory")
        return
    if path and os.path.isdir(path):
        raise ConfigError(f"{what} {path} is a directory")
    parent = os.path.dirname(path or "")
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"{what} {path}: directory {parent} does not exist")


def cmd_gen_synth(args):
    if problems := bound_problems([("--n-frames", args.n_frames, 1)]):
        raise ConfigError(problems)
    _check_out(args.out_dir, "--out-dir", directory=True)
    frame_dir = os.path.join(args.out_dir, "frames")
    _check_out(frame_dir, "frame directory", directory=True)
    _refuse_directories(os.path.join(args.out_dir, name) for name in ("labels.txt", "gen.json"))
    if os.path.isdir(frame_dir) and any(
        name.lower().endswith((".pgm", ".ppm")) for name in os.listdir(frame_dir)
    ):
        raise ConfigError(f"{frame_dir} already holds frames; give a new or empty --out-dir")
    spans = []
    for text in args.anomaly:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--anomaly wants START:END:MODE, got {text!r}")
        try:
            spans.append(AnomalySpan(int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            raise ConfigError(f"--anomaly has non-integer bounds: {text!r}") from None
    scene = SceneConfig(
        canvas=args.canvas,
        objects=args.objects,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    frames, labels = generate_scene(scene, args.n_frames, spans)
    write_scene(args.out_dir, frames, labels)
    record = dataclasses.asdict(scene)
    record.update(n_frames=args.n_frames, anomalies=args.anomaly)
    with open(os.path.join(args.out_dir, "gen.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(frames)} frames to {frame_dir} ({int(labels.sum())} abnormal)")
    return 0


def cmd_train_itae(args):
    config = _resolve_config(args)
    _check_save(config, "itae")
    clips = []
    for source, _ in _video_sources(config.data_path):
        clips.extend(iter_clips(_clip_spec(config, source), _load_checked(config, source)))
    model, model_config = _model(config)
    train_cfg = TrainConfig(config.itae_steps, config.itae_batch, config.itae_lr, config.seed)
    curve = train_autoencoder(model, clips, train_cfg)
    ckpt = _save(config, "itae", model, model_config, curve)
    write_config(os.path.join(config.out_dir, CONFIG_FILE), config)
    print(f"trained {config.itae_steps} steps; checkpoint at {ckpt}")
    print(f"final loss {curve[-1]['total']:.6f} (from {curve[0]['total']:.6f})")
    return 0


def cmd_train_nf(args):
    config = _resolve_config(args)
    streams = [name for name in STREAMS if getattr(config, f"use_{name}_flow")]
    if not streams:
        raise ConfigError("train-nf needs use_static_flow or use_dynamic_flow")
    for name in streams:
        _check_save(config, f"nf_{name}")
    sources = _video_sources(config.data_path)
    itae_dir = args.itae_dir or os.path.join(config.out_dir, "itae")
    model = _load(config, itae_dir)
    model.freeze()
    hash_before = checkpoint_hash(itae_dir)

    samples = {name: [] for name in streams}
    for source, _ in sources:
        pooled = collect_flow_samples(model, _load_checked(config, source), config)
        for name, array in zip(STREAMS, pooled):
            if name in samples and array is not None:
                samples[name].append(array)

    train_cfg = TrainConfig(config.nf_steps, config.nf_batch, config.nf_lr, config.seed)
    for name, arrays in samples.items():
        if not arrays:
            raise ConfigError(f"no {name} feature samples collected")
        data = np.concatenate(arrays, axis=0)
        stack, flow_config = _model(config, STREAMS[name])
        curve = train_flow(stack, data, train_cfg)
        ckpt = _save(config, f"nf_{name}", stack, flow_config, curve)
        print(
            f"{name} density model: {len(data)} samples, final nll "
            f"{curve[-1]['nll']:.4f}; checkpoint at {ckpt}"
        )

    if checkpoint_hash(itae_dir) != hash_before:
        raise RuntimeError(f"frozen checkpoint {itae_dir} changed during step two")
    write_config(os.path.join(config.out_dir, CONFIG_FILE), config)
    return 0


def _load_checked(config, source):
    """Load one video and refuse it, naming the source, unless this run can take it."""
    try:
        video = load_video(_clip_spec(config, source))
    except (ShapeError, NumericError) as exc:
        raise ConfigError(str(exc)) from None
    except OSError as exc:
        raise ConfigError(f"cannot read video file {exc.filename}: {exc.strerror}") from None
    config.check_frames(source, video)
    return video


def _video_sources(data_path, seen=None):
    """Resolve a data path to a list of (frames source, labels path or None).

    Accepts: a packed tensor file; a directory of frames; a directory with a
    frames/ subdirectory (labels.txt beside it); or a directory of such video
    directories, one video each. A path the walk reaches twice (``seen``,
    real path -> path), through a symlink alias or loop, is refused.
    """
    seen = {} if seen is None else seen
    _claim(seen, data_path)
    if os.path.isfile(data_path):
        return [(data_path, None)]
    if not os.path.isdir(data_path):
        raise ConfigError(f"data_path {data_path} is not a file or directory")
    entries = sorted(os.listdir(data_path))
    if any(e.lower().endswith((".pgm", ".ppm")) for e in entries):
        return [(data_path, None)]
    if "frames" in entries:
        labels = os.path.join(data_path, "labels.txt")
        frames = _claim(seen, os.path.join(data_path, "frames"))
        return [(frames, labels if os.path.exists(labels) else None)]
    videos = []
    for entry in entries:
        sub = os.path.join(data_path, entry)
        packed = entry.lower().endswith(".t5")
        if os.path.isdir(sub) or packed and os.path.isfile(sub):
            videos.extend(_video_sources(sub, seen))
        elif packed:  # unreadable: refused, named, when it is loaded
            videos.append((sub, None))
    if not videos:
        raise ConfigError(f"no videos found under {data_path}")
    return videos


def _claim(seen, path):
    """Note ``path`` in ``seen`` and return it, refusing a real path seen before."""
    real = os.path.realpath(path)
    if real in seen:
        raise ConfigError(f"data_path reaches {real} twice, as {seen[real]} and as {path}")
    seen[real] = path
    return path


def cmd_score(args):
    config = _resolve_config(args)
    unused = [
        f"--{name}-dir {getattr(args, f'{name}_dir')} given, but use_{name}_flow is false"
        for name in STREAMS
        if getattr(args, f"{name}_dir") and not getattr(config, f"use_{name}_flow")
    ]
    if unused:
        raise ConfigError(unused)
    score_dir = os.path.join(config.out_dir, "scores")
    _check_out(score_dir, "score directory", directory=True)
    sources = _video_sources(config.data_path)
    if config.label_path and len(sources) > 1:
        raise ConfigError(
            f"label_path {config.label_path} would label all {len(sources)} "
            f"videos under {config.data_path}; give one video or per-video labels.txt"
        )
    names = {}
    for source, _ in sources:
        names.setdefault(_video_name(source), []).append(source)
    clashes = [
        f"videos {', '.join(srcs)} would all write scores/{name}.csv"
        for name, srcs in names.items()
        if len(srcs) > 1
    ]
    if clashes:
        raise ConfigError(clashes)
    _refuse_directories(os.path.join(score_dir, f"{name}.csv") for name in names)
    labels = []  # refuse an unfit video or label file before any checkpoint or output
    for source, label_path in sources:
        total = _load_checked(config, source).shape[2]
        labels.append(_read_labels(config.label_path or label_path, total))

    itae_dir = args.itae_dir or os.path.join(config.out_dir, "itae")
    model = _load(config, itae_dir)
    model.freeze()
    flows = {}
    for name, channels in STREAMS.items():
        if getattr(config, f"use_{name}_flow"):
            flow_dir = getattr(args, f"{name}_dir") or os.path.join(config.out_dir, f"nf_{name}")
            flows[name] = _load(config, flow_dir, channels)

    os.makedirs(score_dir, exist_ok=True)
    for (source, _), video_labels in zip(sources, labels):
        video = _load_checked(config, source)
        total = video.shape[2]
        series = score_video(
            model, video, config, flows.get("static"), flows.get("dynamic")
        )
        name = _video_name(source)
        path = os.path.join(score_dir, f"{name}.csv")
        rows = [
            [
                t,
                repr(float(series["recon"][t])),
                repr(float(series["nll_static"][t])),
                repr(float(series["nll_dynamic"][t])),
                repr(float(series["fused"][t])),
                int(video_labels[t]),
            ]
            for t in range(total)
        ]
        _write_rows(path, SCORE_HEADER, rows)
        print(f"scored {name}: {total} frames -> {path}")
    write_config(os.path.join(config.out_dir, CONFIG_FILE), config)
    return 0


def _read_labels(path, total):
    """Frame labels from ``path``, or -1 (unlabeled) for every frame when None."""
    if not path:
        return np.full(total, -1, dtype=int)
    labels = parse_labels(_read_text(path, "label file"), path)
    if len(labels) != total:
        raise ConfigError(f"{path}: {len(labels)} labels for {total} frames")
    return labels


def _video_name(source):
    base = os.path.basename(os.path.normpath(source))
    if base == "frames":
        base = os.path.basename(os.path.dirname(os.path.normpath(source)))
    return os.path.splitext(base)[0]


def _read_score_csv(path):
    reader = csv.reader(io.StringIO(_read_text(path, "score CSV"), newline=""))
    header = next(reader, None)
    if header != SCORE_HEADER:
        raise ConfigError(f"{path}: unexpected header {header}")
    cols = {name: [] for name in SCORE_HEADER}
    for line, row in enumerate(reader, start=2):
        at = f"{path}: row {line - 1} (line {line})"
        if len(row) != len(SCORE_HEADER):
            column = SCORE_HEADER[len(row)] if len(row) < len(SCORE_HEADER) else len(row)
            raise ConfigError(
                f"{at}, column {column}: {len(row)} cells, expected {len(SCORE_HEADER)}"
            )
        for name, value in zip(SCORE_HEADER, row):
            where = f"{at}, column {name}: {value!r}"
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"{where} is not a number") from None
            if not np.isfinite(number):
                raise ConfigError(f"{where} is not finite")
            if name == "label" and number not in (-1, 0, 1):
                raise ConfigError(f"{where} is not a label (-1, 0 or 1)")
            cols[name].append(number)
    out = {name: np.array(vals) for name, vals in cols.items()}
    out["label"] = out["label"].astype(int)
    return out


def _gather(paths):
    """Read score CSVs; returns (per-video columns, all labels concatenated)."""
    videos = [_read_score_csv(p) for p in paths]
    for path, v in zip(paths, videos):
        if np.any(v["label"] < 0):
            raise ConfigError(f"{path}: contains unlabeled frames; eval needs labels")
    labels = np.concatenate([v["label"] for v in videos])
    classes = np.unique(labels).tolist()
    if len(classes) < 2:
        raise ConfigError(
            f"labels of {len(labels)} frames are only {classes}; "
            "AUC and EER need both normal (0) and abnormal (1) frames"
        )
    return videos, labels


def cmd_eval(args):
    """AUC and EER of the fused score, plus the AUC of each score term alone:
    recon, the per-video normalized NLL and each stream's raw NLL."""
    _check_out(args.out)
    videos, labels = _gather(args.csvs)
    scores = np.concatenate([v["fused"] for v in videos])
    auc, eer, _ = roc_auc_eer(scores, labels)
    terms = {
        "auc_recon": [v["recon"] for v in videos],
        "auc_nll": [nll_score(v["nll_static"], v["nll_dynamic"]) for v in videos],
        "auc_nll_static": [v["nll_static"] for v in videos],
        "auc_nll_dynamic": [v["nll_dynamic"] for v in videos],
    }
    metrics = {"auc": round(auc, 6), "eer": round(eer, 6), "n_frames": int(len(scores))}
    for key, series in terms.items():
        metrics[key] = round(roc_auc_eer(np.concatenate(series), labels)[0], 6)
    record = json.dumps(metrics, sort_keys=True)
    print(record)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(record + "\n")
    return 0


def cmd_sweep(args):
    _check_out(args.out)
    videos, labels = _gather(args.csvs)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--grid wants comma-separated numbers, got {args.grid!r}") from None
    if not grid:
        raise ConfigError("--grid is empty")
    if problems := bound_problems(("--grid value", lam, 0) for lam in grid):
        raise ConfigError(problems)
    rows = []
    for lam in grid:
        fused = np.concatenate(
            [fuse(v["recon"], nll_score(v["nll_static"], v["nll_dynamic"]), lam) for v in videos]
        )
        auc, eer, _ = roc_auc_eer(fused, labels)
        rows.append([repr(lam), repr(round(auc, 6)), repr(round(eer, 6))])
        print(f"lambda {lam:g}: auc {auc:.4f} eer {eer:.4f}")
    if args.out:
        _write_rows(args.out, ["lambda", "auc", "eer"], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
