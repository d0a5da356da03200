"""Each flow layer: invertibility and analytic log-determinants vs numerical Jacobians."""

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.flow import ActNorm, AffineCoupling, InvertibleConv1x1, Squeeze
from flowvad.tensor import Tensor

from numeric import numerical_jacobian


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
        assert np.allclose(layer._weight().data, perm @ l_full @ u_full, atol=1e-12)
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
