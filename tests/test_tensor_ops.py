"""Elementwise, reduction, and structural ops of the autodiff tensor core."""

import warnings
import weakref

import numpy as np
import pytest

from flowvad.errors import NumericError, ShapeError
from flowvad.tensor import Tensor

from graph_ops import (
    amax,
    broadcast_to,
    concat,
    conv3d,
    exp,
    leaky_relu,
    log,
    matmul,
    mean_axis,
    neg,
    relu,
    tanh,
)
from numeric import max_relative_error, numerical_gradient


def check_grad(build, x0, seeds=(0, 1, 2, 3, 4), eps=1e-4, tol=1e-4):
    """Compare reverse-mode gradients against central differences.

    ``build`` maps a raw array to a scalar Tensor. A fresh random projection
    would be redundant here because build already reduces to a scalar.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = x0(rng)
        t = Tensor(x, requires_grad=True)
        loss = build(t)
        loss.backward()
        analytic = t.grad
        numeric = numerical_gradient(lambda a: float(build(Tensor(a)).data), x, eps=eps)
        assert max_relative_error(analytic, numeric) < tol


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(out.data, [4.0, 6.0])

    def test_scalar_operand(self):
        out = 2.0 * Tensor([1.0, -1.0]) + 1.0
        assert np.allclose(out.data, [3.0, -1.0])

    def test_mismatched_shapes_raise_with_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))
        assert "(2, 3)" in str(err.value) and "(2, 4)" in str(err.value)

    def test_batch_axis_broadcast_allowed(self):
        a = Tensor(np.ones((4, 2, 3)), requires_grad=True)
        b = Tensor(np.ones((1, 2, 3)))
        assert (a + b).shape == (4, 2, 3)

    def test_spatial_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((4, 2, 3))) * Tensor(np.zeros((4, 1, 3)))

    def test_divide_by_zero_raises(self):
        with pytest.raises(NumericError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_domain_raises(self):
        with pytest.raises(NumericError):
            log(Tensor([-1.0]))

    def test_exp_overflow_raises(self):
        with pytest.raises(NumericError):
            exp(Tensor([1000.0]))


class TestGraph:
    def test_diamond_accumulates(self):
        # y = x*x + x*x: both branches must add into x.grad
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * x
        y.backward()
        assert np.allclose(x.grad, [12.0])

    def test_reuse_deeper_diamond(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = a + x
        c = a * b
        c.backward()
        # c = 3x * 4x = 12 x^2, dc/dx = 24x
        assert np.allclose(x.grad, [48.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_backward_twice_raises(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_releases_every_non_leaf_node(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 1, 3, 3)), requires_grad=True)
        frozen = Tensor(rng.normal(size=(2, 2, 2, 4, 4)))
        h = leaky_relu(conv3d(x, w, padding=(0, 1, 1)))
        loss = (h * h + h * frozen).mean()
        nodes, todo = {}, [loss]
        while todo:
            node = todo.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                todo.extend(node._parents)
        inner = [t for t in nodes.values() if t._parents]
        assert len(inner) == 6 and {id(x), id(w)} < nodes.keys()
        loss.backward()
        for t in inner:
            assert t.grad is None and t._backward is None and t._parents == ()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert frozen.grad is None
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_backward_frees_an_intermediate_before_later_nodes_run(self):
        x = Tensor(np.ones(3), requires_grad=True)
        alive_in_later_backward = []

        def probe(t):
            out = Tensor(t.data.copy())

            def backward():
                alive_in_later_backward.append(mid_data() is not None)
                t._accumulate(out.grad)

            return out._record((t,), backward)

        mid = probe(x) * 2.0
        mid_data = weakref.ref(mid.data)
        loss = (mid * 3.0).sum()
        del mid  # the caller holds only x and the loss
        loss.backward()
        assert alive_in_later_backward == [False]
        assert np.array_equal(x.grad, np.full(3, 6.0))

    def test_parentless_node_runs_its_backward_and_drops_its_gradient(self):
        # a model's output node writes its parameters' gradient arrays, so it
        # has no parents; the walk still runs it and then frees its gradient
        seen = []
        out = Tensor(np.ones(3))._record((), lambda: seen.append(out.grad.copy()))
        out.mean().backward()
        assert len(seen) == 1 and np.array_equal(seen[0], np.full(3, 1.0 / 3.0))
        assert out.grad is None and out._backward is None

    def test_no_grad_tracking_without_requires_grad(self):
        x = Tensor([1.0])
        y = x * 2.0
        assert not y.requires_grad and y._backward is None

    def test_leaf_grad_only_after_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert x.grad is None
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])


class TestElementwiseGrads:
    """Finite-difference checks, 5 seeds each, epsilon 1e-4."""

    def test_add_mul_chain(self):
        check_grad(lambda t: ((t + 2.0) * (t * 0.5)).sum(), lambda r: r.normal(size=(2, 3, 4)))

    def test_sub_div(self):
        check_grad(
            lambda t: ((t - 1.5) / (t * t + 2.0)).sum(), lambda r: r.normal(size=(3, 4))
        )

    def test_pow(self):
        check_grad(lambda t: (t**3).sum(), lambda r: r.normal(size=(2, 5)))

    def test_exp_log(self):
        check_grad(
            lambda t: log(exp(t) + 1.0).sum(), lambda r: r.normal(size=(2, 3)) * 0.5
        )

    def test_tanh_sigmoid(self):
        check_grad(lambda t: (tanh(t) * t.sigmoid()).sum(), lambda r: r.normal(size=(4, 2)))

    def test_sigmoid_saturates_without_warning(self):
        x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            got = Tensor(x).sigmoid().data
        assert got[0] == 0.0 and got[2] == 0.5 and got[-1] == 1.0
        assert 0.0 < got[1] < 1e-17 and 1.0 - 1e-16 < got[3] <= 1.0

    def test_sigmoid_matches_scipy_expit(self):
        special = pytest.importorskip("scipy.special")
        x = np.random.default_rng(5).normal(scale=20.0, size=10_000)
        want = special.expit(x)
        assert np.max(np.abs(Tensor(x).sigmoid().data - want) / want) < 1e-15

    def test_relu_away_from_kink(self):
        def sample(r):
            x = r.normal(size=(3, 3))
            return x + 0.05 * np.sign(x)

        check_grad(lambda t: (relu(t) * 2.0).sum(), sample)

    def test_leaky_relu(self):
        def sample(r):
            x = r.normal(size=(3, 3))
            return x + 0.05 * np.sign(x)

        check_grad(lambda t: leaky_relu(t, 0.2).sum(), sample)

    @pytest.mark.parametrize("slope", [-0.1, 1.5, float("nan")])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        # max(x, slope * x) is the leaky ReLU only for 0 <= slope <= 1
        with pytest.raises(ValueError, match="slope"):
            leaky_relu(Tensor(np.array([-1.0, 2.0])), slope)

    def test_abs(self):
        def sample(r):
            x = r.normal(size=(2, 4))
            return x + 0.05 * np.sign(x)

        check_grad(lambda t: t.abs().sum(), sample)

    def test_clamp_min(self):
        def sample(r):
            x = r.normal(size=(3, 3))
            return x + 0.05 * np.sign(x - 0.0)

        check_grad(lambda t: (t.clamp_min(0.0) * t).sum(), sample)

    def test_neg(self):
        check_grad(lambda t: (neg(t) * t).sum(), lambda r: r.normal(size=(2, 2)))


class TestReductions:
    def test_sum_axis_values(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        assert np.allclose(t.sum(axis=(0, 1)).data, 15.0)

    def test_mean_keepdims(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        out = mean_axis(t, 1, keepdims=True)
        assert out.shape == (2, 1)
        assert np.allclose(out.data[:, 0], [1.0, 4.0])

    def test_sum_grad(self):
        check_grad(lambda t: (t.sum(axis=1) * 2.0).sum(), lambda r: r.normal(size=(3, 4)))

    def test_mean_grad(self):
        check_grad(
            lambda t: (mean_axis(t, (1, 2)) ** 2).sum(), lambda r: r.normal(size=(2, 3, 4))
        )

    def test_max_grad_no_ties(self):
        check_grad(lambda t: amax(t) * 3.0, lambda r: r.normal(size=(3, 4)))

    def test_max_axis_grad(self):
        check_grad(lambda t: amax(t, axis=1).sum(), lambda r: r.normal(size=(4, 5)))

    def test_max_tie_goes_to_lowest_flat_index(self):
        t = Tensor(np.array([[1.0, 5.0], [5.0, 0.0]]), requires_grad=True)
        amax(t).backward()
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0  # flat index 1 beats flat index 2
        assert np.array_equal(t.grad, expected)

    def test_max_axis_tie_lowest_index(self):
        t = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        amax(t, axis=1).sum().backward()
        assert np.array_equal(t.grad, [[1.0, 0.0, 0.0]])


class TestStructural:
    def test_reshape_transpose_roundtrip_grad(self):
        check_grad(
            lambda t: (t.reshape(6, 4).transpose((1, 0)) ** 2).sum(),
            lambda r: r.normal(size=(2, 3, 4)),
        )

    def test_slice_copies(self):
        t = Tensor(np.arange(8.0))
        piece = t[2:5]
        piece.data[0] = 99.0
        assert t.data[2] == 2.0

    def test_reshape_and_transpose_never_alias(self):
        # a reshape that numpy could satisfy with a view must still copy
        t = Tensor(np.arange(8.0).reshape(2, 4))
        r = t.reshape(8)
        assert not np.shares_memory(r.data, t.data)
        tr = t.transpose((0, 1))  # identity permutation stays contiguous
        assert not np.shares_memory(tr.data, t.data)

    def test_slice_grad_scatter(self):
        t = Tensor(np.arange(8.0), requires_grad=True)
        (t[2:5] * 2.0).sum().backward()
        expected = np.zeros(8)
        expected[2:5] = 2.0
        assert np.array_equal(t.grad, expected)

    def test_advanced_indexing_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.arange(4.0))[np.array([0, 1])]

    def test_concat_values_and_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 3.0).sum().backward()
        assert np.allclose(a.grad, 3.0) and np.allclose(b.grad, 3.0)

    def test_concat_channel_then_slice_grad(self):
        check_grad(
            lambda t: (concat([t, t * 2.0], axis=1)[:, 1:3] ** 2).sum(),
            lambda r: r.normal(size=(2, 2, 3)),
        )

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_broadcast_to_grad(self):
        t = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1), requires_grad=True)
        out = broadcast_to(t, (3, 2, 4, 5))
        out.sum().backward()
        assert np.allclose(t.grad, 3 * 4 * 5)

    def test_matmul_grad(self):
        def build(t):
            w = Tensor(np.linspace(-1, 1, 12).reshape(4, 3))
            return matmul(t, w).sum()

        check_grad(build, lambda r: r.normal(size=(2, 4)))

    def test_matmul_batched_broadcast_grad(self):
        w0 = np.linspace(-0.5, 0.5, 9).reshape(3, 3)

        def build(t):
            w = Tensor(w0, requires_grad=False)
            return matmul(w, t).sum()

        check_grad(build, lambda r: r.normal(size=(4, 3, 5)))

    def test_matmul_batched_weight_grad(self):
        rng = np.random.default_rng(7)
        x = np.abs(rng.normal(size=(4, 3, 5))) + 0.1
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        loss = matmul(w, Tensor(x)).sum()
        loss.backward()
        numeric = numerical_gradient(
            lambda a: float(np.matmul(a, x).sum()), w.data.copy()
        )
        assert max_relative_error(w.grad, numeric) < 1e-4


def test_tensor_submodule_import_is_not_shadowed():
    import flowvad.tensor as T

    assert T.Tensor is Tensor
