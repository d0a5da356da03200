"""Two-step training loops.

Step one fits the autoencoder to reconstruct normal clips. Step two freezes
it and fits one density model per feature stream on the bridged features.
Both loops use Adam with a cosine-annealed step size, draw batches with a
seeded generator, and abort with the last healthy parameters restored when
the loss turns non-finite (or, for the density models, diverges hard).
"""

import dataclasses
import logging

import numpy as np

from .errors import NumericError, TrainingAborted
from .losses import recon_loss
from .optim import Adam, cosine_schedule
from .tensor import Tensor

__all__ = ["TrainConfig", "train_autoencoder", "train_flow"]

log = logging.getLogger(__name__)

LOG_EVERY = 10  # steps between log lines
DIVERGENCE_FACTOR = 10.0  # flow NLL ceiling, in units of |initial NLL| + 1


@dataclasses.dataclass
class TrainConfig:
    steps: int
    batch_size: int
    lr: float
    seed: int = 0


def _snapshot(params):
    return {name: p.data.copy() for name, p in params.items()}


def _check_params_finite(params, step):
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise NumericError(f"parameter {name} became non-finite at step {step}")


def _restore(params, saved):
    for name, p in params.items():
        p.data[...] = saved[name]


def train_autoencoder(model, clips, config):
    """Fit the reconstruction model on normal clips.

    clips: sequence of (1, C, T, H, W) arrays.
    Returns a list of per-step loss rows: dicts with l2, ms_ssim, gradient,
    total. Raises TrainingAborted on non-finite loss, with parameters rolled
    back to the last finite step.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in clips]
    if not arrays:
        raise ValueError("no training clips given")
    rng = np.random.default_rng(config.seed)
    params = model.named_parameters()
    opt = Adam(params.values(), cosine_schedule(config.lr, config.steps))
    curve = []
    good = _snapshot(params)
    for step in range(config.steps):
        idx = rng.integers(0, len(arrays), size=config.batch_size)
        batch = Tensor(np.concatenate([arrays[i] for i in idx], axis=0))
        try:
            out = model.reconstruct(batch)
            loss = recon_loss(batch, out)
            total = float(loss.total.data)
            if not np.isfinite(total):
                raise NumericError(f"loss became non-finite at step {step}")
            opt.zero_grad()
            loss.total.backward()
            opt.step()
            _check_params_finite(params, step)
        except NumericError as exc:
            _restore(params, good)
            raise TrainingAborted(
                f"reconstruction training aborted at step {step}: {exc}"
            ) from exc
        good = _snapshot(params)
        curve.append(
            {
                "step": step,
                "l2": float(loss.l2.data),
                "ms_ssim": float(loss.ms_ssim.data),
                "gradient": float(loss.gradient.data),
                "total": total,
            }
        )
        if step % LOG_EVERY == 0:
            log.info("recon step %d total %.6f", step, total)
    return curve


def train_flow(stack, samples, config):
    """Fit a density model on bridged feature samples.

    samples: (n, C, H, W) array of independent samples. The first batch also
    performs the data-dependent normalization init. Aborts (restoring the
    last healthy parameters) on non-finite loss or when the mean NLL exceeds
    DIVERGENCE_FACTOR * (|initial| + 1).
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 4 or data.shape[0] == 0:
        raise ValueError(f"expected (n, c, h, w) samples, got {data.shape}")
    rng = np.random.default_rng(config.seed)
    n = data.shape[0]

    first = data[rng.integers(0, n, size=min(config.batch_size, n))]
    stack.init_actnorm(first)

    params = stack.named_parameters()
    opt = Adam(params.values(), cosine_schedule(config.lr, config.steps))
    curve = []
    good = _snapshot(params)
    ceiling = None
    for step in range(config.steps):
        idx = rng.integers(0, n, size=config.batch_size)
        batch = Tensor(data[idx])
        try:
            nll = stack.forward(batch).nll.mean()
            value = float(nll.data)
            if not np.isfinite(value):
                raise NumericError(f"nll became non-finite at step {step}")
            if ceiling is None:
                ceiling = DIVERGENCE_FACTOR * (abs(value) + 1.0)
            if value > ceiling:
                raise NumericError(
                    f"nll {value:.3g} exceeded divergence ceiling {ceiling:.3g} "
                    f"at step {step}"
                )
            opt.zero_grad()
            nll.backward()
            opt.step()
            _check_params_finite(params, step)
        except NumericError as exc:
            _restore(params, good)
            raise TrainingAborted(f"density training aborted at step {step}: {exc}") from exc
        good = _snapshot(params)
        curve.append({"step": step, "nll": value})
        if step % LOG_EVERY == 0:
            log.info("flow step %d nll %.6f", step, value)
    return curve
