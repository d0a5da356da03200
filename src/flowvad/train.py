"""Two-step training loops.

Step one fits the autoencoder to reconstruct normal clips; a step's graph
is two nodes, the reconstruction and the loss, each with a hand-written
backward, and the autoencoder's backward writes each decoder layer's input
gradient over its input. Step two freezes it and fits one density model per
feature stream on the bridged features.
Both run ``_fit``: Adam with a cosine-annealed step size over the model's
trainable arrays, the autoencoder's 34 parameters or the flow's one flat
vector, which its named parameters are views into. Each step calls the
stage's ``loss_at(step)``, which draws a batch from a seeded generator and
returns (loss, curve row), then runs backward, takes the model's gradients,
and runs the update and a finiteness check of the parameters, one sum per
trainable array. A NumericError anywhere in a step (a non-finite loss, a
diverging density model, a non-finite parameter) leaves the parameters as
they were when the step began and raises TrainingAborted. Only the
optimizer update writes a parameter (backward overwrites activations,
never parameters), so the copy that restores them is taken after backward
and dropped before the next forward: it is never alive during a forward or
backward pass. It is one copy per trainable array, so the flow takes one
snapshot copy and one finiteness sum a step. The gradients are dropped
before each forward and when training ends, so they are never alive
during a forward.
"""

import dataclasses
import logging

import numpy as np

from .errors import NumericError, TrainingAborted
from .losses import recon_loss
from .optim import Adam, cosine_schedule

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


def _check_params_finite(named, step, params):
    """One sum per trainable array of ``params``, copying nothing; only a
    non-finite total runs the exact pass over the ``named`` arrays, which
    names the offender (or finds none on overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(float(p.sum()) for p in params)
    if np.isfinite(total):
        return
    for name, p in named.items():
        if not np.isfinite(p).all():
            raise NumericError(f"parameter {name} became non-finite at step {step}")


def _fit(model, config, what, loss_at):
    """Run ``config.steps`` Adam steps over ``model.parameters()`` on
    ``loss_at(step) -> (loss, row)``; returns the rows. TrainingAborted
    names ``what``, the failing step and, for a non-finite parameter, its
    name in ``model.named_parameters()``.

    The rollback snapshot is taken after ``loss.backward()``, right before
    ``opt.step``, and dropped before the next step's forward. That is enough:
    ``loss_at`` and backward write no parameter (actnorm's data-dependent
    init runs before this loop), so an error raised before the snapshot
    leaves the parameters untouched and there is nothing to restore. The
    gradients live within a step too: the loop takes them from the model
    right after backward and drops them before the next ``loss_at`` and
    when it returns or aborts.
    """
    params, named = model.parameters(), model.named_parameters()
    opt = Adam(params, cosine_schedule(config.lr, config.steps))
    curve = []
    for step in range(config.steps):
        good = grads = None  # drops the last step's snapshot and gradients before this forward
        try:
            loss, row = loss_at(step)
            loss.backward()
            grads = model.take_gradients()
            good = [p.copy() for p in params]
            opt.step(grads)
            _check_params_finite(named, step, params)
        except NumericError as exc:
            if good is not None:
                for p, values in zip(params, good):
                    p[...] = values
            raise TrainingAborted(f"{what} training aborted at step {step}: {exc}") from exc
        curve.append(row)
        if step % LOG_EVERY == 0:
            log.info("%s step %d loss %.6f", what, step, float(loss.data))
    return curve


def train_autoencoder(model, clips, config):
    """Fit the reconstruction model on normal clips.

    clips: sequence of (1, C, T, H, W) arrays.
    Returns a list of per-step loss rows: dicts with step, l2, ms_ssim,
    gradient, total. Raises TrainingAborted on non-finite loss, with
    parameters rolled back to the last finite step.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in clips]
    if not arrays:
        raise ValueError("no training clips given")
    rng = np.random.default_rng(config.seed)

    def loss_at(step):
        idx = rng.integers(0, len(arrays), size=config.batch_size)
        batch = np.concatenate([arrays[i] for i in idx], axis=0)
        loss = recon_loss(batch, model.reconstruct(batch))
        total = float(loss.total.data)
        if not np.isfinite(total):
            raise NumericError(f"loss became non-finite at step {step}")
        return loss.total, {
            "step": step,
            "l2": loss.l2,
            "ms_ssim": loss.ms_ssim,
            "gradient": loss.gradient,
            "total": total,
        }

    return _fit(model, config, "reconstruction", loss_at)


def train_flow(stack, samples, config):
    """Fit a density model on bridged feature samples.

    samples: (n, C, H, W) array of independent samples. The first batch also
    performs the data-dependent normalization init. Returns rows with step
    and nll. Aborts (restoring the last healthy parameters) on non-finite
    loss or when the mean NLL exceeds DIVERGENCE_FACTOR * (|initial| + 1).
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 4 or data.shape[0] == 0:
        raise ValueError(f"expected (n, c, h, w) samples, got {data.shape}")
    rng = np.random.default_rng(config.seed)
    n = data.shape[0]
    stack.init_actnorm(data[rng.integers(0, n, size=min(config.batch_size, n))])
    ceiling = None

    def loss_at(step):
        nonlocal ceiling
        # a diverging stack overflows inside its layers; the finiteness check
        # and the ceiling below report it, so NumPy's own warnings stay quiet
        with np.errstate(over="ignore", invalid="ignore"):
            nll = stack.forward(data[rng.integers(0, n, size=config.batch_size)]).nll.mean()
        value = float(nll.data)
        if not np.isfinite(value):
            raise NumericError(f"nll became non-finite at step {step}")
        if ceiling is None:
            ceiling = DIVERGENCE_FACTOR * (abs(value) + 1.0)
        if value > ceiling:
            raise NumericError(
                f"nll {value:.3g} exceeded divergence ceiling {ceiling:.3g} at step {step}"
            )
        return nll, {"step": step, "nll": value}

    return _fit(stack, config, "density", loss_at)
