"""Each flow layer: invertibility and analytic log-determinants vs numerical Jacobians."""

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.flow import (
    ActNorm,
    AffineCoupling,
    FlowConfig,
    FlowStack,
    InvertibleConv1x1,
    Squeeze,
)
from flowvad.tensor import Tensor, broadcast_to, concat, conv3d, matmul

from numeric import max_relative_error, numerical_gradient, numerical_jacobian


def layer_fn(layer):
    def f(arr):
        out, _ = layer.forward(Tensor(arr.reshape(1, 2, 2, 2)))
        return out.data.reshape(-1)

    return f


def analytic_logdet(layer, arr):
    _, ld = layer.forward(Tensor(arr))
    value = ld.data if isinstance(ld, Tensor) else np.asarray(ld)
    return float(np.sum(value)) if value.ndim == 0 else float(value.reshape(-1)[0])


def jacobian_logdet(layer, arr):
    j = numerical_jacobian(layer_fn(layer), arr.reshape(-1).copy())
    sign, logabs = np.linalg.slogdet(j)
    assert sign > 0 or not np.isclose(logabs, 0.0), "jacobian should be non-singular"
    return float(logabs)


@pytest.fixture
def x8(rng):
    # 8 total dims: 1 sample, 2 channels, 2x2 spatial
    return rng.normal(size=(1, 2, 2, 2))


class TestActNorm:
    def test_known_scale_logdet(self):
        layer = ActNorm(3)
        layer.logs.data[:] = np.log(2.0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 5)))
        _, ld = layer.forward(x)
        assert ld.item() == pytest.approx(4 * 5 * 3 * np.log(2.0), abs=1e-12)

    def test_starts_as_identity(self, x8):
        layer = ActNorm(2)
        out, ld = layer.forward(Tensor(x8))
        assert np.array_equal(out.data, x8)
        assert ld.item() == 0.0

    def test_data_dependent_init_normalizes(self, rng):
        layer = ActNorm(4)
        batch = rng.normal(3.0, 2.5, size=(16, 4, 3, 3))
        out, _ = layer.forward(Tensor(batch), init=True)
        assert layer.initialized
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-3)
        assert np.all(np.abs(var - 1.0) < 1e-3)

    def test_init_happens_once(self, rng):
        layer = ActNorm(2)
        first = rng.normal(5.0, 2.0, size=(8, 2, 2, 2))
        layer.forward(Tensor(first), init=True)
        logs_before = layer.logs.data.copy()
        layer.forward(Tensor(rng.normal(size=(8, 2, 2, 2))), init=True)
        assert np.array_equal(layer.logs.data, logs_before)

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = ActNorm(2)
        layer.initialize(rng.normal(1.0, 0.7, size=(8, 2, 2, 2)))
        out, ld = layer.forward(Tensor(x8))
        back, ld_inv = layer.inverse(out.data)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert ld.item() == pytest.approx(-ld_inv, abs=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = ActNorm(2)
        layer.initialize(rng.normal(0.0, 1.4, size=(8, 2, 2, 2)))
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )


class TestInvertibleConv1x1:
    def test_rotation_init_has_zero_logdet(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        _, ld = layer.forward(Tensor(x8))
        assert abs(ld.item()) < 1e-10

    def test_weight_reconstruction_is_plu(self, rng):
        layer = InvertibleConv1x1(5, rng)
        perm, l_full, u_full = layer._weight_np()
        # the forward of the 5 basis vectors (as 5 pixels of one sample) is W
        basis = np.eye(5).reshape(1, 5, 1, 5)
        weight = layer.forward(Tensor(basis))[0].data.reshape(5, 5)
        assert np.allclose(weight, perm @ l_full @ u_full, atol=1e-12)
        # strict triangles and unit diagonal
        assert np.allclose(np.triu(l_full) - np.eye(5), 0.0)
        assert np.allclose(np.tril(u_full, -1), 0.0)

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        layer.log_diag.data += rng.normal(0, 0.3, size=2)  # move off the rotation
        out, ld = layer.forward(Tensor(x8))
        back, ld_inv = layer.inverse(out.data)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert ld.item() == pytest.approx(-ld_inv, abs=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        layer.lower.data += rng.normal(0, 0.2, size=(2, 2)) * np.tril(np.ones((2, 2)), -1)
        layer.log_diag.data += 0.25
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )

    def test_gradients_flow_to_lu_parameters(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        out, ld = layer.forward(Tensor(x8, requires_grad=False))
        ((out * out).sum() + ld).backward()
        assert layer.log_diag.grad is not None
        assert layer.lower.grad is not None
        assert layer.upper.grad is not None


class TestAffineCoupling:
    def test_zero_init_is_identity(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        out, ld = layer.forward(Tensor(x8))
        assert np.array_equal(out.data, x8)
        assert np.all(ld.data == 0.0)

    def test_first_half_passes_through(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.5, layer.w3.shape)
        out, _ = layer.forward(Tensor(x8))
        assert np.array_equal(out.data[:, :1], x8[:, :1])
        assert not np.allclose(out.data[:, 1:], x8[:, 1:])

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.5, layer.w3.shape)
        layer.b3.data[:] = rng.normal(0, 0.1, layer.b3.shape)
        out, ld = layer.forward(Tensor(x8))
        back, ld_inv = layer.inverse(out.data)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert np.allclose(ld.data, -ld_inv, atol=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.4, layer.w3.shape)
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )

    def test_scale_stays_inside_clamp(self, rng):
        layer = AffineCoupling(2, hidden=8, rng=rng, clamp=2.0)
        layer.w3.data[:] = rng.normal(0, 50.0, layer.w3.shape)  # huge conditioner output
        x = Tensor(rng.normal(size=(4, 2, 4, 4)))
        _, ld = layer.forward(x)
        # per-element log-scale bounded by the clamp
        assert np.all(np.abs(ld.data) <= 2.0 * 1 * 4 * 4 + 1e-9)

    def test_single_channel_rejected(self, rng):
        with pytest.raises(ShapeError):
            AffineCoupling(1, hidden=8, rng=rng)


class TestSqueeze:
    def test_rearranges_2x2_blocks(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, ld = Squeeze(2).forward(Tensor(x))
        assert out.shape == (1, 4, 2, 2)
        assert ld.item() == 0.0
        # every input value appears exactly once
        assert sorted(out.data.reshape(-1)) == sorted(x.reshape(-1))

    def test_inverse_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 6, 4))
        out, _ = Squeeze(2).forward(Tensor(x))
        back, _ = Squeeze(2).inverse(out.data)
        assert np.array_equal(back, x)

    def test_jacobian_is_permutation(self, rng, x8):
        layer = Squeeze(2)
        j = numerical_jacobian(
            lambda a: layer.forward(Tensor(a.reshape(1, 2, 2, 2)))[0].data.reshape(-1),
            x8.reshape(-1).copy(),
        )
        sign, logabs = np.linalg.slogdet(j)
        assert abs(logabs) < 1e-6

    def test_factor_one_is_identity(self, rng):
        x = rng.normal(size=(1, 3, 2, 2))
        out, _ = Squeeze(1).forward(Tensor(x))
        assert np.array_equal(out.data, x)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            Squeeze(2).forward(Tensor(np.zeros((1, 1, 3, 4))))


# ---------------------------------------------------------------------------
# Hand-written backward of the layer nodes, checked against oracles that
# share nothing with it: finite differences, loop convolutions, and the same
# step composed from generic autodiff ops.


def perturbed_step(rng, channels=2, hidden=4, squeeze=2):
    """One-level, one-step stack with every parameter moved off its init."""
    config = FlowConfig(channels=channels, levels=1, steps=1, hidden=hidden, squeeze=squeeze)
    stack = FlowStack(config, rng)
    for p in stack.parameters():
        p.data = p.data + rng.normal(0, 0.2, p.shape)
    return stack


def conv2d_loop(x, w, b, pad):
    """Zero-padded 2-D cross-correlation, one output value at a time."""
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((n, co, h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1))
    for i, o, r, c in np.ndindex(*out.shape):
        out[i, o, r, c] = np.sum(xp[i, :, r : r + kh, c : c + kw] * w[o]) + b[o]
    return out


def autodiff_conv2d(x, w, b, pad):
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    out = conv3d(x.reshape(n, c, 1, h, wd), w.reshape(co, ci, 1, kh, kw),
                 padding=(0, pad, pad), bias=b)
    return out.reshape(n, co, out.shape[3], out.shape[4])


def autodiff_step(an, mix, cpl, x):
    """actnorm -> LU 1x1 mix -> coupling output, built from generic tensor ops."""
    n, c, h, w = x.shape
    scale = broadcast_to(an.logs.exp().reshape(1, c, 1, 1), x.shape)
    y = x * scale + broadcast_to(an.bias.reshape(1, c, 1, 1), x.shape)
    eye = Tensor(np.eye(c))
    l_full = mix.lower * Tensor(np.tril(np.ones((c, c)), -1)) + eye
    diag = Tensor(mix.sign.reshape(c, 1)) * mix.log_diag.exp().reshape(c, 1)
    u_full = mix.upper * Tensor(np.triu(np.ones((c, c)), 1)) + broadcast_to(diag, (c, c)) * eye
    wmat = matmul(Tensor(mix.perm), matmul(l_full, u_full))
    y = matmul(wmat, y.reshape(n, c, h * w)).reshape(n, c, h, w)
    xa, xb = y[:, : cpl.ca], y[:, cpl.ca :]
    hid = autodiff_conv2d(xa, cpl.w1, cpl.b1, 1).relu()
    hid = autodiff_conv2d(hid, cpl.w2, cpl.b2, 0).relu()
    hid = autodiff_conv2d(hid, cpl.w3, cpl.b3, 1)
    log_s = hid[:, : cpl.cb].tanh() * cpl.clamp
    return concat([xa, xb * log_s.exp() + hid[:, cpl.cb :]], axis=1)


def layer_step(an, mix, cpl, x):
    for layer in (an, mix, cpl):
        x, _ = layer.forward(x)
    return x


PARAM_KINDS = [
    "actnorm.logs", "actnorm.bias", "mix.lower", "mix.upper", "mix.log_diag",
    "coupling.w1", "coupling.b1", "coupling.w2", "coupling.b2", "coupling.w3", "coupling.b3",
]


class TestHandWrittenBackward:
    @pytest.mark.parametrize("kind", PARAM_KINDS)
    def test_parameter_gradient_matches_finite_differences(self, rng, kind):
        stack = perturbed_step(rng)
        x = Tensor(rng.normal(size=(2, 2, 6, 4)))
        param = stack.named_parameters()[f"level0.step0.{kind}"]
        stack.forward(x).nll.mean().backward()
        got = param.grad.copy()

        def nll(values):
            param.data = values
            return float(stack.forward(x).nll.data.mean())

        want = numerical_gradient(nll, param.data.copy())
        assert np.any(got != 0.0)
        assert max_relative_error(got, want) < 1e-6

    def test_conditioner_forward_matches_loop_convolutions(self, rng):
        layer = AffineCoupling(5, hidden=4, rng=rng)  # 2 conditioning, 3 coupled channels
        for p in layer.named_parameters("c").values():
            p.data = p.data + rng.normal(0, 0.3, p.shape)
        xa = rng.normal(size=(3, 2, 5, 4))
        hid = np.maximum(conv2d_loop(xa, layer.w1.data, layer.b1.data, 1), 0.0)
        hid = np.maximum(conv2d_loop(hid, layer.w2.data, layer.b2.data, 0), 0.0)
        want = conv2d_loop(hid, layer.w3.data, layer.b3.data, 1)
        raw, shift = layer._net(Tensor(xa))
        assert raw.shape == shift.shape == (3, 3, 5, 4)
        assert np.allclose(np.concatenate([raw.data, shift.data], axis=1), want,
                           rtol=0.0, atol=1e-12)

    def test_step_gradients_match_autodiff_composition(self, rng):
        stack = perturbed_step(rng, channels=5, hidden=6, squeeze=1)  # couples 2 -> 3
        an, mix, cpl = stack.levels[0]["steps"][0]
        x0 = rng.normal(size=(3, 5, 4, 6))
        weights = Tensor(rng.normal(size=x0.shape))
        grads = []
        for step in (layer_step, autodiff_step):
            for p in stack.parameters():
                p.zero_grad()
            x = Tensor(x0, requires_grad=True)
            out = step(an, mix, cpl, x)
            (out * weights).sum().backward()
            grads.append([x.grad] + [p.grad.copy() for p in stack.parameters()])
            grads[-1].append(out.data)
        for got, want in zip(*grads):
            assert max_relative_error(got, want) < 1e-12

    @pytest.mark.parametrize(
        "trainable",
        [
            ("logs", "bias", "lower", "upper", "log_diag", "w1", "b1", "w2", "b2", "w3", "b3"),
            ("bias", "lower", "log_diag", "w2", "b3"),
            ("w3", "b3"),
            ("logs",),
            (),
        ],
    )
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_frozen_parents_receive_no_gradient(self, rng, trainable, input_grad):
        stack = perturbed_step(rng)
        an, mix, cpl = stack.levels[0]["steps"][0]
        x0 = rng.normal(size=(2, 8, 3, 3))  # the step's input after the level's squeeze
        weights = Tensor(rng.normal(size=x0.shape))
        full = Tensor(x0, requires_grad=True)
        (layer_step(an, mix, cpl, full) * weights).sum().backward()
        want = {name: p.grad.copy() for name, p in stack.named_parameters().items()}
        for name, p in stack.named_parameters().items():
            p.zero_grad()
            p.requires_grad = name.rsplit(".", 1)[1] in trainable
        xin = Tensor(x0, requires_grad=input_grad)
        out = layer_step(an, mix, cpl, xin)
        if out.requires_grad:
            (out * weights).sum().backward()
        for name, p in stack.named_parameters().items():
            if p.requires_grad:
                assert np.allclose(p.grad, want[name], rtol=1e-12, atol=1e-14), name
            else:
                assert p.grad is None, name
        if input_grad:
            assert np.allclose(xin.grad, full.grad, rtol=1e-12, atol=1e-14)
        else:
            assert xin.grad is None
