"""Composed multi-scale stack: exact likelihood accounting and invertibility."""

import math

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.flow import FlowConfig, FlowStack, gaussian_log_density
from flowvad.tensor import Tensor

from model_oracles import bits_per_dim, invert_stack, named_grads, num_transforms
from numeric import numerical_jacobian


def perturb(stack, rng, scale=0.3):
    """Move a freshly built stack off its identity-like init."""
    for name, p in stack.named_parameters().items():
        if name.endswith(("w3", "b3")):
            p += rng.normal(0, scale, p.shape)
        elif name.endswith(("logs", "bias", "log_diag")):
            p += rng.normal(0, 0.1 * scale, p.shape)


def flatten_latents(z_parts):
    return np.concatenate([z.reshape(z.shape[0], -1) for z in z_parts], axis=1)


class TestComposedStack:
    def test_inverse_of_forward_is_identity(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=4, hidden=8), rng)
        perturb(stack, rng)
        x = rng.normal(size=(3, 2, 4, 4))
        result = stack.forward(Tensor(x))
        back = invert_stack(stack, result.z_parts)
        assert np.max(np.abs(back - x)) < 1e-6

    def test_forward_of_inverse_is_identity(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=4, hidden=8), rng)
        perturb(stack, rng)
        shapes = [(2, 4, 2, 2), (2, 16, 1, 1)]
        z_parts = [rng.normal(size=s) for s in shapes]
        x = invert_stack(stack, z_parts)
        result = stack.forward(Tensor(x))
        for got, want in zip(result.z_parts, z_parts):
            assert np.max(np.abs(got - want)) < 1e-6

    def test_nll_equals_prior_plus_per_layer_logdets(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=3, hidden=8), rng)
        perturb(stack, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        result = stack.forward(Tensor(x))
        # call every layer by hand, summing its log-det in forward order
        h, chain, z_parts, layers = x, np.zeros(2), [], 0
        for level in stack.levels:
            for _, layer in level["layers"]:
                h, ld, _ = layer.forward(h)
                chain = chain + ld
                layers += 1
            if level["keep"] < level["channels"]:
                z_parts.append(h[:, level["keep"] :])
                h = h[:, : level["keep"]]
        z_parts.append(h)
        assert layers == num_transforms(stack) - 1 == 2 * (1 + 3 * 3)  # the split has no log-det
        for got, want in zip(result.z_parts, z_parts, strict=True):
            assert np.array_equal(got, want)
        prior = sum(gaussian_log_density(z) for z in z_parts)
        assert np.array_equal(result.nll.data, -(prior + chain))

    def test_composed_logdet_matches_numerical_jacobian(self, rng):
        # 8 total dims; squeeze factor 1 keeps two levels meaningful at 1x1
        stack = FlowStack(
            FlowConfig(channels=8, levels=2, steps=4, hidden=8, squeeze=1), rng
        )
        perturb(stack, rng)
        x = rng.normal(size=(1, 8, 1, 1))

        def f(arr):
            res = stack.forward(Tensor(arr.reshape(1, 8, 1, 1)))
            return flatten_latents(res.z_parts).reshape(-1)

        j = numerical_jacobian(f, x.reshape(-1).copy())
        _, logabs = np.linalg.slogdet(j)
        analytic = stack.forward(Tensor(x)).logdet[0]
        assert analytic == pytest.approx(logabs, abs=1e-6)

    def test_fresh_stack_nll_on_zeros_is_gaussian_constant(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=4, hidden=8), rng)
        x = np.zeros((1, 2, 4, 4))
        result = stack.forward(Tensor(x))
        d = 2 * 4 * 4
        assert result.nll.data[0] == pytest.approx(0.5 * d * math.log(2 * math.pi), abs=1e-8)

    def test_bits_per_dim_scaling(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=1, steps=2, hidden=8), rng)
        x = rng.normal(size=(4, 2, 4, 4))
        result = stack.forward(Tensor(x))
        d = 2 * 4 * 4
        assert np.allclose(bits_per_dim(result), result.nll.data / (d * math.log(2.0)))

    def test_per_sample_values_independent_of_batch(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=2, hidden=8), rng)
        perturb(stack, rng)
        xs = rng.normal(size=(5, 2, 4, 4))
        batch_nll = stack.forward(Tensor(xs)).nll.data
        single = np.array(
            [stack.forward(Tensor(xs[i : i + 1])).nll.data[0] for i in range(5)]
        )
        assert np.allclose(batch_nll, single, atol=1e-10)

    def test_latent_dims_conserved(self, rng):
        stack = FlowStack(FlowConfig(channels=3, levels=2, steps=2, hidden=8), rng)
        x = rng.normal(size=(2, 3, 8, 8))
        result = stack.forward(Tensor(x))
        total = sum(int(np.prod(z.shape[1:])) for z in result.z_parts)
        assert total == 3 * 8 * 8


class TestValidation:
    def test_wrong_channel_count_rejected(self, rng):
        stack = FlowStack(FlowConfig(channels=3, levels=1, steps=1, hidden=8), rng)
        with pytest.raises(ShapeError):
            stack.forward(Tensor(np.zeros((1, 2, 4, 4))))

    def test_indivisible_spatial_rejected(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=1, hidden=8), rng)
        with pytest.raises(ShapeError):
            stack.forward(Tensor(np.zeros((1, 2, 6, 6))))

    def test_too_few_channels_for_coupling_rejected(self, rng):
        with pytest.raises(ShapeError):
            FlowStack(FlowConfig(channels=1, levels=1, steps=1, squeeze=1), rng)

    def test_gradients_reach_every_parameter(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=2, hidden=8), rng)
        perturb(stack, rng)
        x = rng.normal(size=(4, 2, 4, 4))
        stack.forward(Tensor(x)).nll.mean().backward()
        for name, g in named_grads(stack).items():
            assert g.any(), name

    def test_nll_gradient_check_against_finite_differences(self, rng):
        from numeric import max_relative_error, numerical_gradient

        stack = FlowStack(FlowConfig(channels=2, levels=1, steps=2, hidden=4), rng)
        perturb(stack, rng)
        x0 = rng.normal(size=(2, 2, 2, 2))
        xt = Tensor(x0, requires_grad=True)
        stack.forward(xt).nll.mean().backward()

        numeric = numerical_gradient(
            lambda a: float(stack.forward(Tensor(a)).nll.data.mean()), x0.copy()
        )
        assert max_relative_error(xt.grad, numeric) < 1e-4


class TestGraphFreeNll:
    def test_nll_of_equals_forward_bitwise(self, rng):
        stack = FlowStack(FlowConfig(channels=3, levels=2, steps=2, hidden=8), rng)
        perturb(stack, rng)
        x = rng.normal(size=(4, 3, 8, 8))
        assert np.array_equal(stack.nll_of(x), stack.forward(Tensor(x)).nll.data)

    @staticmethod
    def forward_results(monkeypatch, call):
        """The results of every FlowStack.forward that ``call()`` makes."""
        results = []
        forward = FlowStack.forward
        monkeypatch.setattr(
            FlowStack, "forward", lambda *a, **k: results.append(forward(*a, **k)) or results[-1]
        )
        call()
        monkeypatch.undo()
        return results

    def test_no_graph_and_no_parameter_gradients(self, rng, monkeypatch):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=2, hidden=8), rng)
        perturb(stack, rng)
        x = rng.normal(size=(3, 2, 4, 4))
        (result,) = self.forward_results(
            monkeypatch, lambda: stack.nll_of(Tensor(x, requires_grad=True))
        )
        t = result.nll
        assert t._parents == () and t._backward is None and not t.requires_grad
        result.nll.sum().backward()
        assert not stack.take_gradients()[0].any()
        # a training forward on the same stack records
        stack.forward(Tensor(x)).nll.mean().backward()
        assert stack.take_gradients()[0].any()

    def test_init_actnorm_records_nothing(self, rng, monkeypatch):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=2, hidden=8), rng)
        x = rng.normal(size=(3, 2, 4, 4))
        (result,) = self.forward_results(monkeypatch, lambda: stack.init_actnorm(x))
        t = result.nll
        assert t._parents == () and t._backward is None and not t.requires_grad
        assert not stack.take_gradients()[0].any()

    def test_forward_records_one_node_and_none_without_grad(self, rng):
        stack = FlowStack(FlowConfig(channels=2, levels=2, steps=2, hidden=8), rng)
        perturb(stack, rng)
        x = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        nll = stack.forward(x).nll
        # the NLL is the only node: its one parent is the input, a leaf; the
        # parameters are plain arrays, outside the graph
        assert nll._backward is not None and nll.shape == (3,)
        assert nll._parents == (x,) and x._backward is None and x._parents == ()
        assert stack.forward(Tensor(x.data)).nll._parents == ()
        nll = stack.forward(x, record=False).nll
        assert nll._backward is None and nll._parents == () and not nll.requires_grad
