"""The benchmark's three workloads: set-up, timed closed loop, output checks.

Each workload is driven by one caller that starts its next operation only
after the previous one returned. Inputs are synthetic scenes generated from
the seed; flowvad receives only the generated frames, clips and features.

  itae_train  one operation is one autoencoder training step
  nf_train    one operation is one flow training step, static or dynamic
  score       one operation is loading and scoring one test video
"""

import contextlib
import dataclasses
import math
import os
import resource
import time

import numpy as np

import tracing
from flowvad import checkpoint, clips, pipeline
from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.config import RunConfig
from flowvad.errors import TrainingAborted
from flowvad.flow import FlowConfig, FlowStack
from flowvad.synthetic import AnomalySpan, SceneConfig, generate_scene, write_scene
from flowvad.train import TrainConfig, train_autoencoder, train_flow

SETUP_REPS = 3  # set-ups per run; setup_s is their median
NF_WARM_STEPS = 3  # flow steps per stream in the set-up's warm-up


@dataclasses.dataclass(frozen=True)
class Geometry:
    """Input sizes and model shapes of one benchmark configuration."""

    side: int = 64  # frame height and width, gray
    clip_len: int = 8
    tau: int = 4
    flow_levels: int = 2
    flow_steps: int = 4
    flow_hidden: int = 32
    itae_batch: int = 2
    nf_batch: int = 8
    score_stride: int = 4
    train_scenes: int = 2  # normal scenes behind training clips and features
    train_frames: int = 40
    test_videos: int = 2
    test_frames: int = 160
    # Operations per second of --seconds. They fix each workload's operation
    # count from --seconds alone, never from a measured time, so two commits
    # run the same number of operations and their tails are the same
    # percentile. At 30 s: 15 itae steps, 375 flow steps per stream, 2 videos.
    itae_steps_per_s: float = 0.5
    nf_steps_per_s: float = 25.0  # both streams together
    score_videos_per_s: float = 1 / 15

    def op_count(self, rate, seconds, least):
        return max(least, int(rate * seconds + 0.5))

    def run_config(self):
        return RunConfig(
            clip_len=self.clip_len,
            tau=self.tau,
            flow_levels=self.flow_levels,
            flow_steps=self.flow_steps,
            flow_hidden=self.flow_hidden,
            itae_batch=self.itae_batch,
            nf_batch=self.nf_batch,
            score_stride=self.score_stride,
            patch_size=min(16, self.side),
        ).validate()

    def flow_config(self, channels):
        return FlowConfig(
            channels=channels,
            levels=self.flow_levels,
            steps=self.flow_steps,
            hidden=self.flow_hidden,
        )

    def ae_config(self):
        return AutoencoderConfig(tau=self.tau)


ACCEPTANCE = Geometry()
# Small enough for the bench's own smoke test to run in seconds.
TINY = Geometry(
    side=16,
    flow_steps=1,
    flow_hidden=8,
    train_scenes=1,
    train_frames=16,
    test_videos=1,
    test_frames=24,
    itae_steps_per_s=20.0,
    nf_steps_per_s=100.0,
)


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list  # seconds of each set-up
    op_s: list  # seconds of each operation of the timed loop
    attempted: int  # operations the loop started
    items: int  # clips, feature samples or frames the loop processed
    failed: int  # operations that broke an output check
    digest: dict  # output summary that shows numeric drift between commits
    setup_rss_mb: float  # peak RSS when set-up ended, before the timed loop


def peak_rss_mb():
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- helpers


def _phase(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


class StepClock:
    """Times training steps from the calls that start them.

    A step lasts from one boundary call to the next, or to finish(). With a
    tracer, each step is also a span that encloses the calls made in it.
    """

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.steps = []
        self._start = None
        self._span = None

    def mark(self):
        now = time.perf_counter()
        self.finish(now)
        self._start = now
        if self.tracer:
            self._span = self.tracer.open(self.name, now)

    def finish(self, now=None):
        if self._start is None:
            return
        now = time.perf_counter() if now is None else now
        self.steps.append(now - self._start)
        if self._span is not None:
            self.tracer.close(self._span, now)
        self._start = self._span = None


def _marking(clock, skip_init=False):
    def make(fn):
        def wrapper(*args, **kwargs):
            if not (skip_init and kwargs.get("init")):
                clock.mark()
            return fn(*args, **kwargs)

        return wrapper

    return make


def _scene_seeds(seed, n, stream):
    return [int(s) for s in np.random.default_rng([seed, stream]).integers(0, 2**31, n)]


def _normal_scenes(geom, seed, work):
    """Write the normal training scenes; returns their frame directories."""
    dirs = []
    for k, scene_seed in enumerate(_scene_seeds(seed, geom.train_scenes, 0)):
        frames, labels = generate_scene(
            SceneConfig(canvas=geom.side, seed=scene_seed), geom.train_frames
        )
        dirs.append(write_scene(os.path.join(work, f"normal{k}"), frames, labels))
    return dirs


def _test_videos(geom, seed, work):
    """Write labelled test videos with a speed and a shape anomaly span."""
    t = geom.test_frames
    spans = [AnomalySpan(t // 4, t // 4 + t // 5, "speed"),
             AnomalySpan(13 * t // 20, 17 * t // 20, "shape")]
    dirs = []
    for k, scene_seed in enumerate(_scene_seeds(seed, geom.test_videos, 1)):
        frames, labels = generate_scene(SceneConfig(canvas=geom.side, seed=scene_seed), t, spans)
        dirs.append(write_scene(os.path.join(work, f"test{k}"), frames, labels))
    return dirs


def _spec(geom, source):
    return clips.ClipSpec(source=source, clip_len=geom.clip_len, tau=geom.tau,
                          stride=geom.run_config().clip_stride)


def _features(geom, model, dirs):
    """Static and dynamic flow samples of the frozen model over `dirs`."""
    pairs = [
        pipeline.collect_flow_samples(model, clips.load_video(_spec(geom, d)), geom.run_config())
        for d in dirs
    ]
    return {
        "static": np.concatenate([s for s, _ in pairs]),
        "dynamic": np.concatenate([d for _, d in pairs]),
    }


_CHANNELS = {"static": 3, "dynamic": 2}


def _stacks(geom, seed):
    return {
        name: FlowStack(geom.flow_config(ch), np.random.default_rng([seed, k]))
        for k, (name, ch) in enumerate(_CHANNELS.items())
    }


def _loss_failures(losses):
    """Steps whose loss is not finite; the last step also fails when the
    final loss is not below the first."""
    bad = sum(1 for v in losses if not math.isfinite(v))
    if losses and not bad and losses[-1] >= losses[0]:
        bad = 1
    return bad


def _set_up(tracer, work, setup):
    """Run `setup(directory)` SETUP_REPS times; keep the last state.

    Returns the set-up times, the last state and the peak RSS so far."""
    times = []
    state = None
    for rep in range(SETUP_REPS):
        with _phase(tracer, "bench.setup"):
            start = time.perf_counter()
            state = setup(os.path.join(work, f"setup{rep}"))
            times.append(time.perf_counter() - start)
    return times, state, peak_rss_mb()


# --------------------------------------------------------------- itae_train


def itae_train(geom, seed, seconds, work, tracer=None):
    """Autoencoder training at the acceptance batch on generated normal clips."""
    cfg = geom.run_config()

    def setup(path):
        train = [c for d in _normal_scenes(geom, seed, path)
                 for c in clips.iter_clips(_spec(geom, d))]
        model = TwoPathAutoencoder(geom.ae_config(), np.random.default_rng(seed))
        train_autoencoder(model, train, TrainConfig(
            steps=1, batch_size=cfg.itae_batch, lr=cfg.itae_lr, seed=seed))
        return train, model

    setup_s, (train, model), setup_rss = _set_up(tracer, work, setup)
    clock = StepClock(tracer, "train.itae.step")
    n_steps = geom.op_count(geom.itae_steps_per_s, seconds, 3)
    with _phase(tracer, "bench.loop"):
        with tracing.patched(TwoPathAutoencoder, "reconstruct", _marking(clock)):
            try:
                curve = train_autoencoder(model, train, TrainConfig(
                    steps=n_steps, batch_size=cfg.itae_batch, lr=cfg.itae_lr, seed=seed + 1))
            except TrainingAborted:
                curve = []
            clock.finish()
    losses = [row["total"] for row in curve]
    failed = n_steps - len(curve) + _loss_failures(losses)
    return Outcome(
        setup_s=setup_s,
        setup_rss_mb=setup_rss,
        op_s=clock.steps,
        attempted=n_steps,
        items=len(curve) * cfg.itae_batch,
        failed=failed,
        digest={"first_loss": curve[0] if curve else None,
                "final_loss": curve[-1] if curve else None},
    )


# ----------------------------------------------------------------- nf_train


def nf_train(geom, seed, seconds, work, tracer=None):
    """Flow training on the static and dynamic features of a frozen model."""
    cfg = geom.run_config()

    def train_config(steps):
        return TrainConfig(steps=steps, batch_size=cfg.nf_batch, lr=cfg.nf_lr, seed=seed)

    def setup(path):
        model = TwoPathAutoencoder(geom.ae_config(), np.random.default_rng(seed))
        model.freeze()
        features = _features(geom, model, _normal_scenes(geom, seed, path))
        for name, stack in _stacks(geom, seed).items():
            train_flow(stack, features[name], train_config(NF_WARM_STEPS))
        return features, _stacks(geom, seed)

    setup_s, (features, stacks), setup_rss = _set_up(tracer, work, setup)
    clock = StepClock(tracer, "train.nf.step")
    steps = geom.op_count(geom.nf_steps_per_s / len(stacks), seconds, 3)
    attempted = 0
    failed = 0
    digest = {}
    with _phase(tracer, "bench.loop"):
        with tracing.patched(FlowStack, "forward", _marking(clock, skip_init=True)):
            for name, stack in stacks.items():
                try:
                    curve = train_flow(stack, features[name], train_config(steps))
                except TrainingAborted:
                    curve = []
                clock.finish()
                losses = [row["nll"] for row in curve]
                attempted += steps
                failed += steps - len(curve) + _loss_failures(losses)
                digest[name] = {"first_nll": losses[0] if losses else None,
                                "final_nll": losses[-1] if losses else None}
    return Outcome(
        setup_s=setup_s,
        setup_rss_mb=setup_rss,
        op_s=clock.steps,
        attempted=attempted,
        items=len(clock.steps) * cfg.nf_batch,
        failed=failed,
        digest=digest,
    )


# -------------------------------------------------------------------- score


def _series_failures(series, frames, lambda_l):
    """1 when a video's score series break an output check, else 0."""
    for values in series.values():
        if values.shape != (frames,) or not np.all(np.isfinite(values)):
            return 1
    nll = series["nll_norm"]
    ok = (
        np.all(series["recon"] >= 0)
        and np.all((nll >= 0) & (nll <= 1))
        and np.allclose(series["fused"], series["recon"] + lambda_l * nll,
                        rtol=1e-12, atol=1e-12)
    )
    return 0 if ok else 1


def score(geom, seed, seconds, work, tracer=None):
    """Video scoring through checkpointed models, at score stride 4."""
    cfg = geom.run_config()

    def setup(path):
        videos = [_spec(geom, d) for d in _test_videos(geom, seed, path)]
        # Seeded weights: the autoencoder as initialised, the flows with
        # data-dependent actnorm init on the features of a normal scene.
        model = TwoPathAutoencoder(geom.ae_config(), np.random.default_rng(seed))
        model.freeze()
        features = _features(geom, model, _normal_scenes(geom, seed, path))
        ckpt = os.path.join(path, "ckpt")
        checkpoint.save_checkpoint(os.path.join(ckpt, "itae"), model.named_parameters(),
                                   geom.ae_config())
        for name, stack in _stacks(geom, seed).items():
            stack.init_actnorm(features[name])
            checkpoint.save_checkpoint(os.path.join(ckpt, name), stack.named_parameters(),
                                       geom.flow_config(_CHANNELS[name]))

        model = TwoPathAutoencoder(geom.ae_config(), np.random.default_rng(seed))
        model.load_state(checkpoint.load_checkpoint(os.path.join(ckpt, "itae"),
                                                    geom.ae_config()))
        model.freeze()
        flows = _stacks(geom, seed)
        for name, stack in flows.items():
            stack.load_state(checkpoint.load_checkpoint(
                os.path.join(ckpt, name), geom.flow_config(_CHANNELS[name])))
        head = clips.load_video(videos[0])[:, :, : 2 * geom.clip_len]
        pipeline.score_video(model, head, cfg, flows["static"], flows["dynamic"])
        return videos, model, flows

    setup_s, (videos, model, flows), setup_rss = _set_up(tracer, work, setup)
    op_s = []
    results = []
    with _phase(tracer, "bench.loop"):
        for k in range(geom.op_count(geom.score_videos_per_s, seconds, 1)):
            start = time.perf_counter()
            video = clips.load_video(videos[k % len(videos)])
            series = pipeline.score_video(model, video, cfg, flows["static"], flows["dynamic"])
            op_s.append(time.perf_counter() - start)
            results.append((video.shape[2], series))
    failed = sum(_series_failures(s, n, cfg.lambda_l) for n, s in results)
    digest = [
        {key: [float(np.sum(v)), float(np.max(v))] for key, v in series.items()}
        for _, series in results[: len(videos)]
    ]
    return Outcome(
        setup_s=setup_s,
        setup_rss_mb=setup_rss,
        op_s=op_s,
        attempted=len(op_s),
        items=sum(n for n, _ in results),
        failed=failed,
        digest={"sum_max_per_series": digest},
    )


WORKLOADS = {"itae_train": itae_train, "nf_train": nf_train, "score": score}
