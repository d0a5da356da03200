"""Each flow layer: invertibility and analytic log-determinants vs numerical Jacobians."""

import math

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.flow import (
    _CLAMP,
    ActNorm,
    AffineCoupling,
    FlowConfig,
    FlowStack,
    InvertibleConv1x1,
    Squeeze,
    _lu,
    _patches,
)
from flowvad.tensor import Tensor

from graph_ops import broadcast_to, concat, conv3d, exp, matmul, relu, tanh
from numeric import max_relative_error, numerical_gradient, numerical_jacobian


def layer_fn(layer):
    def f(arr):
        out, _, _ = layer.forward(arr.reshape(1, 2, 2, 2))
        return out.reshape(-1)

    return f


def analytic_logdet(layer, arr):
    _, ld, _ = layer.forward(arr)
    return float(np.broadcast_to(ld, (1,))[0])


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
        x = np.random.default_rng(0).normal(size=(1, 3, 4, 5))
        _, ld, _ = layer.forward(x)
        assert ld == pytest.approx(4 * 5 * 3 * np.log(2.0), abs=1e-12)

    def test_starts_as_identity(self, x8):
        layer = ActNorm(2)
        out, ld, _ = layer.forward(x8)
        assert np.array_equal(out, x8)
        assert ld == 0.0

    def test_data_dependent_init_normalizes(self, rng):
        layer = ActNorm(4)
        batch = rng.normal(3.0, 2.5, size=(16, 4, 3, 3))
        out, _, _ = layer.forward(batch, init=True)
        assert layer.initialized
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-3)
        assert np.all(np.abs(var - 1.0) < 1e-3)

    def test_init_happens_once(self, rng):
        layer = ActNorm(2)
        first = rng.normal(5.0, 2.0, size=(8, 2, 2, 2))
        layer.forward(first, init=True)
        logs_before = layer.logs.data.copy()
        layer.forward(rng.normal(size=(8, 2, 2, 2)), init=True)
        assert np.array_equal(layer.logs.data, logs_before)

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = ActNorm(2)
        layer.initialize(rng.normal(1.0, 0.7, size=(8, 2, 2, 2)))
        out, ld, _ = layer.forward(x8)
        back, ld_inv = layer.inverse(out)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert ld == pytest.approx(-ld_inv, abs=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = ActNorm(2)
        layer.initialize(rng.normal(0.0, 1.4, size=(8, 2, 2, 2)))
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )


class TestInvertibleConv1x1:
    def test_rotation_init_has_zero_logdet(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        _, ld, _ = layer.forward(x8)
        assert abs(ld) < 1e-10

    def test_weight_reconstruction_is_plu(self, rng):
        layer = InvertibleConv1x1(5, rng)
        perm, l_full, u_full = layer._weight_np()
        # the forward of the 5 basis vectors (as 5 pixels of one sample) is W
        basis = np.eye(5).reshape(1, 5, 1, 5)
        weight = layer.forward(basis)[0].reshape(5, 5)
        assert np.allclose(weight, perm @ l_full @ u_full, atol=1e-12)
        # strict triangles and unit diagonal
        assert np.allclose(np.triu(l_full) - np.eye(5), 0.0)
        assert np.allclose(np.tril(u_full, -1), 0.0)

    @pytest.mark.parametrize("channels", [2, 5, 12, 32])
    def test_lu_of_rotation(self, channels):
        q, _ = np.linalg.qr(np.random.default_rng(channels).normal(size=(channels, channels)))
        p, l, u = _lu(q)
        assert np.max(np.abs(p @ l @ u - q)) < 1e-14
        assert np.array_equal(p @ p.T, np.eye(channels)) and np.all(p * (1.0 - p) == 0.0)
        assert np.array_equal(np.triu(l), np.eye(channels))  # unit lower
        assert not np.any(np.tril(u, -1))  # upper
        # each pivot is the largest of what remains of its column, so no
        # multiplier exceeds 1 in magnitude
        assert np.all(np.abs(l) <= 1.0)

    def test_lu_pivots_and_zero_column(self):
        p, l, u = _lu(np.array([[0.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(p, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(l, np.eye(2)) and np.array_equal(u, [[3.0, 4.0], [0.0, 2.0]])
        # a zero column leaves a zero pivot, which the layer refuses, and no NaN
        singular = np.array([[0.0, 1.0], [0.0, 2.0]])
        p, l, u = _lu(singular)
        assert np.array_equal(p @ l @ u, singular) and u[0, 0] == 0.0

    def test_lu_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(32, 32)))
        want = linalg.lu(q)
        got = _lu(q)
        assert np.array_equal(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert np.max(np.abs(g - w)) < 1e-13

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        layer.log_diag.data += rng.normal(0, 0.3, size=2)  # move off the rotation
        out, ld, _ = layer.forward(x8)
        back, ld_inv = layer.inverse(out)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert ld == pytest.approx(-ld_inv, abs=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = InvertibleConv1x1(2, rng)
        layer.lower.data += rng.normal(0, 0.2, size=(2, 2)) * np.tril(np.ones((2, 2)), -1)
        layer.log_diag.data += 0.25
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )

    def test_gradients_flow_to_lu_parameters(self, rng, x8):
        # backward of sum(out^2) + logdet: output gradient 2 out, log-det gradient 1
        layer = InvertibleConv1x1(2, rng)
        out, _, cache = layer.forward(x8)
        layer.backward(cache, 2.0 * out, np.ones(1))
        assert layer.log_diag.grad is not None
        assert layer.lower.grad is not None
        assert layer.upper.grad is not None

        def objective(values):
            layer.log_diag.data = values
            y, ld, _ = layer.forward(x8)
            return float((y * y).sum() + ld)

        want = numerical_gradient(objective, layer.log_diag.data.copy())
        assert max_relative_error(layer.log_diag.grad, want) < 1e-6


class TestAffineCoupling:
    def test_zero_init_is_identity(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        out, ld, _ = layer.forward(x8)
        assert np.array_equal(out, x8)
        assert np.all(ld == 0.0)

    def test_first_half_passes_through(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.5, layer.w3.shape)
        out, _, _ = layer.forward(x8)
        assert np.array_equal(out[:, :1], x8[:, :1])
        assert not np.allclose(out[:, 1:], x8[:, 1:])

    def test_inverse_roundtrip_and_logdet(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.5, layer.w3.shape)
        layer.b3.data[:] = rng.normal(0, 0.1, layer.b3.shape)
        out, ld, _ = layer.forward(x8)
        back, ld_inv = layer.inverse(out)
        assert np.max(np.abs(back - x8)) < 1e-6
        assert np.allclose(ld, -ld_inv, atol=1e-8)

    def test_jacobian_matches_analytic(self, rng, x8):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 0.4, layer.w3.shape)
        assert jacobian_logdet(layer, x8) == pytest.approx(
            analytic_logdet(layer, x8), abs=1e-6
        )

    def test_scale_stays_inside_clamp(self, rng):
        layer = AffineCoupling(2, hidden=8, rng=rng)
        layer.w3.data[:] = rng.normal(0, 50.0, layer.w3.shape)  # huge conditioner output
        x = rng.normal(size=(4, 2, 4, 4))
        _, ld, _ = layer.forward(x)
        # per-element log-scale bounded by the clamp
        assert np.all(np.abs(ld) <= 2.0 * 1 * 4 * 4 + 1e-9)

    def test_single_channel_rejected(self, rng):
        with pytest.raises(ShapeError):
            AffineCoupling(1, hidden=8, rng=rng)


class TestSqueeze:
    def test_rearranges_2x2_blocks(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out, ld, _ = Squeeze().forward(x)
        assert out.shape == (1, 4, 2, 2)
        assert ld == 0.0
        # every input value appears exactly once
        assert sorted(out.reshape(-1)) == sorted(x.reshape(-1))

    def test_inverse_roundtrip(self, rng):
        x = rng.normal(size=(2, 3, 6, 4))
        out, _, _ = Squeeze().forward(x)
        back, _ = Squeeze().inverse(out)
        assert np.array_equal(back, x)

    def test_jacobian_is_permutation(self, rng, x8):
        layer = Squeeze()
        j = numerical_jacobian(
            lambda a: layer.forward(a.reshape(1, 2, 2, 2))[0].reshape(-1),
            x8.reshape(-1).copy(),
        )
        sign, logabs = np.linalg.slogdet(j)
        assert abs(logabs) < 1e-6

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            Squeeze().forward(np.zeros((1, 1, 3, 4)))


# ---------------------------------------------------------------------------
# Hand-written backward of the layer nodes, checked against oracles that
# share nothing with it: finite differences, loop convolutions, and the same
# step composed from generic autodiff ops.


def perturbed_step(rng, channels=2, hidden=4, squeeze=2):
    """One-level, one-step stack with every parameter moved off its init."""
    config = FlowConfig(channels=channels, levels=1, steps=1, hidden=hidden, squeeze=squeeze)
    stack = FlowStack(config, rng)
    for p in stack.named_parameters().values():
        p.data += rng.normal(0, 0.2, p.shape)  # in place: each is a view of the flat vector
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
    """actnorm -> LU 1x1 mix -> coupling from generic tensor ops; returns the
    output and the step's per-sample log-det."""
    n, c, h, w = x.shape
    scale = broadcast_to(exp(an.logs).reshape(1, c, 1, 1), x.shape)
    y = x * scale + broadcast_to(an.bias.reshape(1, c, 1, 1), x.shape)
    eye = Tensor(np.eye(c))
    l_full = mix.lower * Tensor(np.tril(np.ones((c, c)), -1)) + eye
    diag = Tensor(mix.sign.reshape(c, 1)) * exp(mix.log_diag).reshape(c, 1)
    u_full = mix.upper * Tensor(np.triu(np.ones((c, c)), 1)) + broadcast_to(diag, (c, c)) * eye
    wmat = matmul(Tensor(mix.perm), matmul(l_full, u_full))
    y = matmul(wmat, y.reshape(n, c, h * w)).reshape(n, c, h, w)
    xa, xb = y[:, : cpl.ca], y[:, cpl.ca :]
    hid = relu(autodiff_conv2d(xa, cpl.w1, cpl.b1, 1))
    hid = relu(autodiff_conv2d(hid, cpl.w2, cpl.b2, 0))
    hid = autodiff_conv2d(hid, cpl.w3, cpl.b3, 1)
    log_s = tanh(hid[:, : cpl.cb]) * _CLAMP
    out = concat([xa, xb * exp(log_s) + hid[:, cpl.cb :]], axis=1)
    per_sample = Tensor(np.ones(n))
    logdet = (an.logs.sum() + mix.log_diag.sum()) * float(h * w) * per_sample
    return out, logdet + log_s.sum(axis=(1, 2, 3))


def autodiff_nll(stack, x):
    """The whole stack's per-sample NLL from generic tensor ops: squeeze and
    split by reshape, transpose and slicing, a unit Gaussian prior."""
    f = stack.config.squeeze
    logdet = Tensor(np.zeros(x.shape[0]))
    z_parts = []
    for level in stack.levels:
        n, c, h, w = x.shape
        if f > 1:
            x = x.reshape(n, c, h // f, f, w // f, f).transpose((0, 1, 3, 5, 2, 4))
            x = x.reshape(n, c * f * f, h // f, w // f)
        for an, mix, cpl in level["steps"]:
            x, ld = autodiff_step(an, mix, cpl, x)
            logdet = logdet + ld
        if level["keep"] < level["channels"]:
            z_parts.append(x[:, level["keep"] :])
            x = x[:, : level["keep"]]
    z_parts.append(x)
    nll = logdet * (-1.0)
    for z in z_parts:
        d = int(np.prod(z.shape[1:]))
        nll = nll + (z * z).sum(axis=(1, 2, 3)) * 0.5 + 0.5 * d * math.log(2.0 * math.pi)
    return nll


def assert_matches_autodiff(rng, **config):
    """The stack's NLL node against :func:`autodiff_nll`: values, the input
    gradient and every parameter gradient within 1e-12."""
    stack = FlowStack(FlowConfig(**config), rng)
    for p in stack.named_parameters().values():
        p.data += rng.normal(0, 0.2, p.shape)
    x0 = rng.normal(size=(3, config["channels"], 4, 8))
    weights = Tensor(rng.normal(size=3))
    results = []
    for nll_of in (lambda x: stack.forward(x).nll, lambda x: autodiff_nll(stack, x)):
        for p in stack.parameters():
            p.grad = None
        x = Tensor(x0, requires_grad=True)
        nll = nll_of(x)
        (nll * weights).sum().backward()
        results.append([nll.data, x.grad] + [p.grad.copy() for p in stack.parameters()])
    for got, want in zip(*results):
        assert max_relative_error(got, want) < 1e-12


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
            param.data[...] = values
            return float(stack.forward(x).nll.data.mean())

        want = numerical_gradient(nll, param.data.copy())
        assert np.any(got != 0.0)
        assert max_relative_error(got, want) < 1e-6

    def test_conditioner_forward_matches_loop_convolutions(self, rng):
        layer = AffineCoupling(5, hidden=4, rng=rng)  # 2 conditioning, 3 coupled channels
        for p in layer.named_parameters("c").values():
            p.data += rng.normal(0, 0.3, p.shape)
        xa = rng.normal(size=(3, 2, 5, 4))
        hid = np.maximum(conv2d_loop(xa, layer.w1.data, layer.b1.data, 1), 0.0)
        hid = np.maximum(conv2d_loop(hid, layer.w2.data, layer.b2.data, 0), 0.0)
        want = conv2d_loop(hid, layer.w3.data, layer.b3.data, 1)
        out, _ = layer._net(xa)
        assert out.shape == (6, 5, 4, 3)  # raw scale and shift, channel-major
        assert np.allclose(out.transpose(3, 0, 1, 2), want, rtol=0.0, atol=1e-12)

    def test_step_gradients_match_autodiff_composition(self, rng):
        assert_matches_autodiff(rng, channels=5, levels=1, steps=1, hidden=6, squeeze=1)

    def test_stack_gradients_match_autodiff_composition(self, rng):
        # two levels: squeeze, split and a prior over two latent parts
        assert_matches_autodiff(rng, channels=2, levels=2, steps=2, hidden=4, squeeze=2)

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_input_gradient_only_when_wanted(self, rng, input_grad):
        # the stack trains whole; the input gets a gradient only when it wants one
        stack = perturbed_step(rng)
        x0 = rng.normal(size=(2, 2, 6, 6))
        weights = Tensor(rng.normal(size=2))
        full = Tensor(x0, requires_grad=True)
        (stack.forward(full).nll * weights).sum().backward()
        want = {name: p.grad.copy() for name, p in stack.named_parameters().items()}
        for p in stack.parameters():
            p.grad = None
        xin = Tensor(x0, requires_grad=input_grad)
        (stack.forward(xin).nll * weights).sum().backward()
        for name, p in stack.named_parameters().items():
            assert np.allclose(p.grad, want[name], rtol=1e-12, atol=1e-14), name
        if input_grad:
            assert np.allclose(xin.grad, full.grad, rtol=1e-12, atol=1e-14)
        else:
            assert xin.grad is None


def patches_oracle(x):
    """Zero-padded 3x3 neighbourhoods of (c, h, w, n) input, one position at a
    time: row (ch, a, b) of column (i, j, m) is x[ch, i + a - 1, j + b - 1, m],
    or 0 outside the grid."""
    c, h, w, n = x.shape
    cols = np.zeros((c, 3, 3, h, w, n))
    for a in range(3):
        for b in range(3):
            for i in range(h):
                for j in range(w):
                    if 0 <= i + a - 1 < h and 0 <= j + b - 1 < w:
                        cols[:, a, b, i, j] = x[:, i + a - 1, j + b - 1]
    return cols.reshape(c * 9, h * w * n)


# The coupling conditioner's inputs at the two levels of a 2-level flow on
# 3x16x16 static features, batch 8: (n, ca, h, w) after each squeeze.
@pytest.mark.parametrize("shape", [(8, 6, 8, 8), (8, 12, 4, 4)], ids=["level0", "level1"])
def test_patches_match_neighbourhood_oracle(rng, shape):
    xa = rng.normal(size=shape)
    x = xa.transpose(1, 2, 3, 0)  # channel-major, as the conditioner passes it
    want = patches_oracle(x)
    got = _patches(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
