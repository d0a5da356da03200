"""Training loops: determinism, progress, and abort behavior."""

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.errors import NumericError, TrainingAborted
from flowvad.checkpoint import load_checkpoint, save_checkpoint
from flowvad.flow import ActNorm, AffineCoupling, FlowConfig, FlowStack, InvertibleConv1x1
from flowvad import optim
from flowvad.optim import Adam
from flowvad.tensor import Tensor
from flowvad.train import TrainConfig, _check_params_finite, train_autoencoder, train_flow

from model_oracles import named_grads


def copies_at_each_call(monkeypatch, owner, attr, params, then=None):
    """Patch owner.attr to copy `params` before each call and run `then`
    after it; returns the list of copies, one per call."""
    copies = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        copies.append({name: p.copy() for name, p in params.items()})
        out = original(*args, **kwargs)
        if then is not None:
            then(len(copies))
        return out

    monkeypatch.setattr(owner, attr, wrapper)
    return copies


def assert_params_equal(params, values):
    for name, p in params.items():
        assert np.array_equal(p, values[name]), name


def layers_holding_gradients(model):
    """How many of the autoencoder's layers hold a gradient."""
    return sum(bool(layer.grads) for _, layer in model._layers())


def tiny_model(seed=0):
    return TwoPathAutoencoder(
        AutoencoderConfig(in_channels=1, tau=4), np.random.default_rng(seed)
    )


def tiny_clips(rng, n=4):
    return [rng.uniform(size=(1, 1, 4, 16, 16)) for _ in range(n)]


class TestAutoencoderLoop:
    def test_zero_lr_leaves_params_bit_identical(self, rng):
        model = tiny_model()
        before = {k: v.copy() for k, v in model.named_parameters().items()}
        train_autoencoder(
            model, tiny_clips(rng), TrainConfig(steps=3, batch_size=1, lr=0.0)
        )
        for name, p in model.named_parameters().items():
            assert np.array_equal(p, before[name]), name

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
            assert np.all(np.isfinite(p)), name
        assert len(starts) > 1  # the bad clip was not drawn first
        assert_params_equal(params, starts[-1])

    def test_abort_after_update_restores_pre_step_params(self, rng, monkeypatch):
        model = tiny_model()
        params = model.named_parameters()

        def poison(calls):
            if calls == 3:
                params["decode4.bias"][...] = np.nan

        starts = copies_at_each_call(monkeypatch, Adam, "step", params, then=poison)
        with pytest.raises(
            TrainingAborted, match="aborted at step 2: parameter decode4.bias became non-finite"
        ):
            train_autoencoder(
                model, tiny_clips(rng, n=2), TrainConfig(steps=5, batch_size=1, lr=1e-3)
            )
        assert_params_equal(params, starts[-1])
        assert layers_holding_gradients(model) == 0  # released on abort too

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
        actnorms = [
            layer for level in stack.levels for name, layer in level["layers"]
            if name.endswith("actnorm")
        ]
        assert actnorms and all(an.initialized for an in actnorms)

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
            assert np.all(np.isfinite(p)), name
        assert_params_equal(params, starts[-1])

    def test_abort_after_update_restores_pre_step_params(self, rng, monkeypatch):
        stack = tiny_flow()
        params = stack.named_parameters()

        def poison(calls):
            if calls == 3:
                params["level0.step1.coupling.b3"][...] = np.nan

        starts = copies_at_each_call(monkeypatch, Adam, "step", params, then=poison)
        with pytest.raises(
            TrainingAborted,
            match="density training aborted at step 2: "
            "parameter level0.step1.coupling.b3 became non-finite",
        ):
            train_flow(stack, flow_samples(rng), TrainConfig(steps=5, batch_size=8, lr=1e-3))
        assert_params_equal(params, starts[-1])

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


def steps_seen(monkeypatch, seen):
    """Patch Adam.step to append each call's gradients to ``seen``."""
    step = Adam.step

    def recording(opt, grads):
        seen.append(grads)
        step(opt, grads)

    monkeypatch.setattr(Adam, "step", recording)


class TestGradientLifetime:
    """The autoencoder's gradients live only within a step: no layer holds
    one during a forward, nor after training returns (the abort test above
    checks that none is held after an abort); each step hands Adam new
    arrays. The flow's gradient is one buffer every step reuses."""

    def test_autoencoder(self, rng, monkeypatch):
        model = tiny_model()
        held = []
        reconstruct = TwoPathAutoencoder.reconstruct

        def counting(self, x):
            held.append(layers_holding_gradients(self))
            return reconstruct(self, x)

        monkeypatch.setattr(TwoPathAutoencoder, "reconstruct", counting)
        seen = []
        steps_seen(monkeypatch, seen)
        train_autoencoder(model, tiny_clips(rng, n=2), TrainConfig(steps=3, batch_size=1, lr=1e-3))
        assert held == [0, 0, 0]
        assert layers_holding_gradients(model) == 0
        assert len(seen) == 3 and all(len(grads) == 34 for grads in seen)
        assert all(type(g) is np.ndarray for grads in seen for g in grads)
        assert not any(np.shares_memory(a, b) for a, b in zip(seen[0], seen[1]))

    def test_flow(self, rng, monkeypatch):
        stack = tiny_flow()
        seen = []
        steps_seen(monkeypatch, seen)
        train_flow(stack, flow_samples(rng), TrainConfig(steps=3, batch_size=8, lr=1e-3))
        (buffer,) = stack.take_gradients()
        assert len(seen) == 3 and all(len(grads) == 1 and grads[0] is buffer for grads in seen)


class TestParameterCheck:
    def test_overflowing_total_is_not_an_abort(self):
        # every value finite, but their sum overflows to inf
        named = {"a": np.full(4, 1e308), "b": np.array([-1e308, 1e308])}
        _check_params_finite(named, 0, list(named.values()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_non_finite_parameter(self, bad):
        values = np.ones(3)
        values[1] = bad
        named = {"a": np.full(4, 1e308), "b": values}
        with pytest.raises(NumericError, match="parameter b became non-finite at step 7"):
            _check_params_finite(named, 7, list(named.values()))


class TestAdam:
    def test_blocked_update_is_the_textbook_expression_bitwise(self):
        """A parameter of three whole blocks and a ragged tail, over three
        steps with a changing learning rate: the in-place blocked update
        gives the bits of the whole-array textbook expression."""
        rng = np.random.default_rng(9)
        shape = (3, optim._BLOCK + 411)  # 3 * 65,947 values: 3 blocks and a tail
        assert (3 * shape[1]) % optim._BLOCK != 0 and 3 * shape[1] > 3 * optim._BLOCK
        p = rng.normal(size=shape)
        opt = Adam([p], lambda step: 1e-3 * (step + 1))
        b1, b2, eps = 0.9, 0.999, 1e-8
        data, m, v = p.copy(), np.zeros(shape), np.zeros(shape)
        for step in range(3):
            g = rng.normal(size=shape)
            opt.step([g.copy()])
            t, lr = step + 1, 1e-3 * (step + 1)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            data = data - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert np.array_equal(p.view(np.uint64), data.view(np.uint64)), step


def assert_views_of_one_vector(stack):
    """Every named parameter is a view into the flat vector, which is the
    concatenation of the named parameters in order."""
    named = stack.named_parameters()
    flat = stack.params
    for name, p in named.items():
        assert np.shares_memory(p, flat), name
    assert np.array_equal(flat, np.concatenate([p.reshape(-1) for p in named.values()]))


class TestFlatParameters:
    """The flow stack trains one flat vector; its named parameters stay
    views into it through every way the values change."""

    def test_views_survive_init_load_training_and_rollback(self, rng, monkeypatch):
        stack = tiny_flow()
        assert_views_of_one_vector(stack)
        samples = flow_samples(rng)
        stack.init_actnorm(samples[:8])
        assert np.any(stack.named_parameters()["level0.step0.actnorm.logs"] != 0.0)
        assert_views_of_one_vector(stack)

        trained = tiny_flow(seed=1)
        train_flow(trained, samples, TrainConfig(steps=3, batch_size=8, lr=1e-2))
        stack.load_state(trained.named_parameters())
        assert np.array_equal(stack.params, trained.params)
        assert_views_of_one_vector(stack)

        before = stack.params.copy()
        train_flow(stack, samples, TrainConfig(steps=3, batch_size=8, lr=1e-2))
        assert not np.array_equal(stack.params, before)
        assert_views_of_one_vector(stack)

        params = stack.named_parameters()

        def poison(calls):
            if calls == 2:
                params["level0.step1.coupling.b3"][...] = np.nan

        starts = copies_at_each_call(monkeypatch, Adam, "step", params, then=poison)
        with pytest.raises(TrainingAborted, match="aborted at step 1"):
            train_flow(stack, samples, TrainConfig(steps=5, batch_size=8, lr=1e-2))
        assert_params_equal(params, starts[-1])
        assert_views_of_one_vector(stack)

    def test_gradient_views_are_the_flat_gradient(self, rng):
        stack = tiny_flow()
        stack.forward(Tensor(flow_samples(rng, n=8))).nll.mean().backward()
        layers = [layer for level in stack.levels for _, layer in level["layers"]]
        grads = [g for layer in layers for g in layer.grads.values()]
        (flat_grad,) = stack.take_gradients()
        for g in grads:
            assert np.shares_memory(g, flat_grad)
        assert np.array_equal(flat_grad, np.concatenate([g.reshape(-1) for g in grads]))

    def test_named_parameters_are_arrays(self, rng, tmp_path):
        """Both models name and train plain arrays, which a checkpoint
        round-trips. The flow's are views of ``params`` in order, and after
        a backward each layer's gradient array is the view of the flat
        gradient at the same offset; a layer built alone holds zero
        gradients."""
        model, stack = tiny_model(), tiny_flow()
        for named in (model.named_parameters(), stack.named_parameters()):
            assert all(type(p) is np.ndarray for p in named.values())
        for params in (model.parameters(), stack.parameters()):
            assert all(type(p) is np.ndarray for p in params)
        assert stack.parameters() == [stack.params] and len(model.parameters()) == 34
        stack.forward(Tensor(flow_samples(rng, n=8))).nll.mean().backward()
        flat, (flat_grad,) = stack.params, stack.take_gradients()
        start = 0
        for level in stack.levels:
            for name, layer in level["layers"]:
                assert layer.grads.keys() == layer.params.keys(), name
                for key, p in layer.params.items():
                    stop = start + p.size
                    assert stack.named_parameters()[f"{name}.{key}"] is p
                    for view, whole in ((p, flat), (layer.grads[key], flat_grad)):
                        assert view.shape == p.shape
                        assert view.ctypes.data == whole[start:].ctypes.data, (name, key)
                    start = stop
        assert start == flat.size and flat_grad.any()

        for layer in (ActNorm(3), InvertibleConv1x1(3, rng), AffineCoupling(4, 5, rng)):
            assert layer.grads.keys() == layer.params.keys()
            for key, p in layer.params.items():
                g = layer.grads[key]
                assert g.shape == p.shape and not g.any() and not np.shares_memory(g, p), key

        arrays = {"b": rng.normal(size=(2, 3)), "a": rng.normal(size=4)}
        save_checkpoint(tmp_path / "c", arrays, stack.config)
        back = load_checkpoint(tmp_path / "c", stack.config)
        assert back.keys() == arrays.keys()
        assert all(np.array_equal(back[k], v) for k, v in arrays.items())

    def test_training_is_textbook_adam_per_parameter_bitwise(self, rng, monkeypatch):
        """Five steps of train_flow give the bits of a whole-array textbook
        Adam run on each named parameter alone, fed the gradients read from
        that parameter's slice of the flat gradient at each step."""
        stack = tiny_flow()
        named = stack.named_parameters()
        config = TrainConfig(steps=5, batch_size=8, lr=5e-3, seed=2)
        seen = []  # (values before the update, gradients) per step
        step = Adam.step

        def recording(opt, grads):
            seen.append((
                {k: p.copy() for k, p in named.items()},
                {k: g.copy() for k, g in named_grads(stack).items()},
            ))
            step(opt, grads)

        monkeypatch.setattr(Adam, "step", recording)
        train_flow(stack, flow_samples(rng), config)
        assert len(seen) == config.steps
        b1, b2, eps = 0.9, 0.999, 1e-8
        lr_at = optim.cosine_schedule(config.lr, config.steps)
        for name, p in named.items():
            data = seen[0][0][name]
            m, v = np.zeros(p.shape), np.zeros(p.shape)
            for i, (_, grads) in enumerate(seen):
                g, t, lr = grads[name], i + 1, lr_at(i)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                data = data - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert np.any(data != seen[0][0][name]), name
            assert np.array_equal(p.view(np.uint64), data.view(np.uint64)), name
