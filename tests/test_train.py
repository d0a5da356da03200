"""Training loops: determinism, progress, and abort behavior."""

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.errors import NumericError, TrainingAborted
from flowvad.flow import FlowConfig, FlowStack
from flowvad.optim import Adam
from flowvad.tensor import Tensor
from flowvad.train import TrainConfig, _check_params_finite, train_autoencoder, train_flow


def copies_at_each_call(monkeypatch, owner, attr, params, then=None):
    """Patch owner.attr to copy `params` before each call and run `then`
    after it; returns the list of copies, one per call."""
    copies = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        copies.append({name: p.data.copy() for name, p in params.items()})
        out = original(*args, **kwargs)
        if then is not None:
            then(len(copies))
        return out

    monkeypatch.setattr(owner, attr, wrapper)
    return copies


def assert_params_equal(params, values):
    for name, p in params.items():
        assert np.array_equal(p.data, values[name]), name


def tiny_model(seed=0):
    return TwoPathAutoencoder(
        AutoencoderConfig(in_channels=1, tau=4), np.random.default_rng(seed)
    )


def tiny_clips(rng, n=4):
    return [rng.uniform(size=(1, 1, 4, 16, 16)) for _ in range(n)]


class TestAutoencoderLoop:
    def test_zero_lr_leaves_params_bit_identical(self, rng):
        model = tiny_model()
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        train_autoencoder(
            model, tiny_clips(rng), TrainConfig(steps=3, batch_size=1, lr=0.0)
        )
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, before[name]), name

    def test_loss_decreases(self, rng):
        model = tiny_model()
        clips = tiny_clips(rng, n=2)
        curve = train_autoencoder(
            model, clips, TrainConfig(steps=12, batch_size=1, lr=2e-3)
        )
        assert len(curve) == 12
        assert curve[-1]["total"] < curve[0]["total"]

    def test_curve_rows_are_complete(self, rng):
        model = tiny_model()
        curve = train_autoencoder(
            model, tiny_clips(rng, n=1), TrainConfig(steps=2, batch_size=1, lr=1e-3)
        )
        row = curve[0]
        assert set(row) == {"step", "l2", "ms_ssim", "gradient", "total"}
        assert row["total"] == pytest.approx(
            row["l2"] + row["ms_ssim"] + row["gradient"]
        )

    def test_same_seed_same_curve(self, rng):
        clips = tiny_clips(rng, n=3)
        cfg = TrainConfig(steps=5, batch_size=2, lr=1e-3, seed=7)
        c1 = train_autoencoder(tiny_model(1), clips, cfg)
        c2 = train_autoencoder(tiny_model(1), clips, cfg)
        assert c1 == c2

    def test_abort_restores_last_good_params(self, rng, monkeypatch):
        model = tiny_model()
        params = model.named_parameters()
        starts = copies_at_each_call(monkeypatch, TwoPathAutoencoder, "reconstruct", params)
        bad = np.full((1, 1, 4, 16, 16), np.nan)
        clips = tiny_clips(rng, n=3) + [bad]
        with pytest.raises(TrainingAborted, match="aborted at step"):
            train_autoencoder(
                model, clips, TrainConfig(steps=40, batch_size=1, lr=1e-3, seed=5)
            )
        for name, p in params.items():
            assert np.all(np.isfinite(p.data)), name
        assert len(starts) > 1  # the bad clip was not drawn first
        assert_params_equal(params, starts[-1])

    def test_abort_after_update_restores_pre_step_params(self, rng, monkeypatch):
        model = tiny_model()
        params = model.named_parameters()

        def poison(calls):
            if calls == 3:
                params["decode4.bias"].data[...] = np.nan

        starts = copies_at_each_call(monkeypatch, Adam, "step", params, then=poison)
        with pytest.raises(
            TrainingAborted, match="aborted at step 2: parameter decode4.bias became non-finite"
        ):
            train_autoencoder(
                model, tiny_clips(rng, n=2), TrainConfig(steps=5, batch_size=1, lr=1e-3)
            )
        assert_params_equal(params, starts[-1])
        assert all(p.grad is None for p in params.values())  # released on abort too

    def test_no_clips_rejected(self):
        with pytest.raises(ValueError, match="no training clips"):
            train_autoencoder(tiny_model(), [], TrainConfig(steps=1, batch_size=1, lr=0.1))


def tiny_flow(seed=0):
    return FlowStack(
        FlowConfig(channels=2, levels=1, steps=2, hidden=4), np.random.default_rng(seed)
    )


def flow_samples(rng, n=64):
    # structured data: correlated channels, so there is likelihood to gain
    base = rng.normal(size=(n, 1, 4, 4))
    return np.concatenate([base, 0.5 * base + 0.1 * rng.normal(size=(n, 1, 4, 4))], axis=1)


class TestFlowLoop:
    def test_nll_decreases(self, rng):
        stack = tiny_flow()
        curve = train_flow(
            stack, flow_samples(rng), TrainConfig(steps=30, batch_size=16, lr=5e-3)
        )
        assert curve[-1]["nll"] < curve[0]["nll"]

    def test_actnorm_initialized_on_first_batch(self, rng):
        stack = tiny_flow()
        train_flow(stack, flow_samples(rng), TrainConfig(steps=1, batch_size=8, lr=1e-3))
        for level in stack.levels:
            for an, _, _ in level["steps"]:
                assert an.initialized

    def test_same_seed_same_curve(self, rng):
        samples = flow_samples(rng)
        cfg = TrainConfig(steps=6, batch_size=8, lr=1e-3, seed=3)
        c1 = train_flow(tiny_flow(2), samples, cfg)
        c2 = train_flow(tiny_flow(2), samples, cfg)
        assert c1 == c2

    # the NLL ceiling and the finiteness check report the divergence, not
    # NumPy warnings from the diverging layers
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_and_restores(self, rng, monkeypatch):
        stack = tiny_flow()
        samples = flow_samples(rng)
        stack.init_actnorm(samples[:8])
        params = stack.named_parameters()
        starts = copies_at_each_call(monkeypatch, FlowStack, "forward", params)
        with pytest.raises(TrainingAborted, match="aborted"):
            train_flow(stack, samples, TrainConfig(steps=200, batch_size=8, lr=3e2))
        for name, p in params.items():
            assert np.all(np.isfinite(p.data)), name
        assert_params_equal(params, starts[-1])

    def test_abort_after_update_restores_pre_step_params(self, rng, monkeypatch):
        stack = tiny_flow()
        params = stack.named_parameters()

        def poison(calls):
            if calls == 3:
                params["level0.step1.coupling.b3"].data[...] = np.nan

        starts = copies_at_each_call(monkeypatch, Adam, "step", params, then=poison)
        with pytest.raises(
            TrainingAborted,
            match="density training aborted at step 2: "
            "parameter level0.step1.coupling.b3 became non-finite",
        ):
            train_flow(stack, flow_samples(rng), TrainConfig(steps=5, batch_size=8, lr=1e-3))
        assert_params_equal(params, starts[-1])
        assert all(p.grad is None for p in params.values())  # released on abort too

    def test_one_forward_per_step(self, rng, monkeypatch):
        calls = []
        forward = FlowStack.forward

        def counting(stack, *args, **kwargs):
            calls.append(kwargs.get("init", False))
            return forward(stack, *args, **kwargs)

        monkeypatch.setattr(FlowStack, "forward", counting)
        train_flow(tiny_flow(), flow_samples(rng), TrainConfig(steps=4, batch_size=8, lr=1e-3))
        assert calls == [True, False, False, False, False]  # actnorm init, then one per step

    def test_bad_sample_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="samples"):
            train_flow(tiny_flow(), rng.normal(size=(8, 2, 4)), TrainConfig(steps=1, batch_size=4, lr=1e-3))


def grads_at_each_call(monkeypatch, owner, attr, params):
    """Patch owner.attr to record, before each call, the names of the
    parameters that carry a gradient; returns the list of records."""
    seen = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        seen.append([name for name, p in params.items() if p.grad is not None])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return seen


class TestGradientLifetime:
    """Gradients live only within a step: none is held during the next
    step's forward, nor after training returns (the abort tests above check
    that none is held after an abort)."""

    def test_autoencoder(self, rng, monkeypatch):
        model = tiny_model()
        params = model.named_parameters()
        seen = grads_at_each_call(monkeypatch, TwoPathAutoencoder, "reconstruct", params)
        train_autoencoder(model, tiny_clips(rng, n=2), TrainConfig(steps=3, batch_size=1, lr=1e-3))
        assert seen == [[], [], []]
        assert all(p.grad is None for p in params.values())

    def test_flow(self, rng, monkeypatch):
        stack = tiny_flow()
        params = stack.named_parameters()
        seen = grads_at_each_call(monkeypatch, FlowStack, "forward", params)
        train_flow(stack, flow_samples(rng), TrainConfig(steps=3, batch_size=8, lr=1e-3))
        assert seen == [[], [], [], []]  # actnorm init, then one per step
        assert all(p.grad is None for p in params.values())


class TestParameterCheck:
    def test_overflowing_total_is_not_an_abort(self):
        # every value finite, but their sum overflows to inf
        params = {"a": Tensor(np.full(4, 1e308)), "b": Tensor(np.array([-1e308, 1e308]))}
        _check_params_finite(params, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_non_finite_parameter(self, bad):
        values = np.ones(3)
        values[1] = bad
        params = {"a": Tensor(np.full(4, 1e308)), "b": Tensor(values)}
        with pytest.raises(NumericError, match="parameter b became non-finite at step 7"):
            _check_params_finite(params, 7)
