"""Reconstruction loss: the one-node loss against its autodiff oracle and
against brute-force reference implementations."""

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.losses import MS_SSIM_WEIGHTS, SSIM_WINDOW, recon_loss, usable_scales
from flowvad.tensor import Tensor

from graph_ops import conv3d, mean_axis
from numeric import max_relative_error, numerical_gradient

C1, C2 = 0.01**2, 0.03**2


# ---------------------------------------------------------------- the oracle


def _oracle_blur(x):
    coords = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * 1.5**2))
    g = g / g.sum()
    kw = Tensor(g.reshape(1, 1, 1, 1, SSIM_WINDOW))
    kh = Tensor(g.reshape(1, 1, 1, SSIM_WINDOW, 1))
    return conv3d(conv3d(x, kw), kh)


def _oracle_halve(x):
    return conv3d(x, Tensor(np.full((1, 1, 1, 2, 2), 0.25)), stride=(1, 2, 2))


def autodiff_ms_ssim(x, y):
    """Mean MS-SSIM over all frames, as a graph of generic tensor ops."""
    b, _, t, h, w = x.shape
    scales = usable_scales(h, w)
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()

    def frames(v):
        gray = mean_axis(v, 1, keepdims=True)
        return gray.transpose((0, 2, 1, 3, 4)).reshape(b * t, 1, 1, h, w)

    fx, fy = frames(x), frames(y)
    reduce_axes = (1, 2, 3, 4)
    score = None
    for level in range(scales):
        mu1 = _oracle_blur(fx)
        mu2 = _oracle_blur(fy)
        mu1_sq, mu2_sq, mu12 = mu1 * mu1, mu2 * mu2, mu1 * mu2
        s1 = _oracle_blur(fx * fx) - mu1_sq
        s2 = _oracle_blur(fy * fy) - mu2_sq
        s12 = _oracle_blur(fx * fy) - mu12
        cs_map = (2.0 * s12 + C2) / (s1 + s2 + C2)
        if level < scales - 1:
            factor = mean_axis(cs_map, reduce_axes)
            fx, fy = _oracle_halve(fx), _oracle_halve(fy)
        else:
            lum = (2.0 * mu12 + C1) / (mu1_sq + mu2_sq + C1)
            factor = mean_axis(lum * cs_map, reduce_axes)
        term = factor.clamp_min(1e-6) ** float(weights[level])
        score = term if score is None else score * term
    return score.mean()


def autodiff_gradient_difference(x, y):
    xh = x[:, :, :, 1:, :] - x[:, :, :, :-1, :]
    xw = x[:, :, :, :, 1:] - x[:, :, :, :, :-1]
    yh = y[:, :, :, 1:, :] - y[:, :, :, :-1, :]
    yw = y[:, :, :, :, 1:] - y[:, :, :, :, :-1]
    num = (xh - yh).abs().sum() + (xw - yw).abs().sum()
    return num * (1.0 / (xh.size + xw.size))


def autodiff_recon_loss(target, output):
    """The loss as a graph of generic tensor ops, the way ``recon_loss``
    recorded it before it became one node: (l2, 1 - MS-SSIM, gradient term,
    total)."""
    l2 = ((target - output) ** 2).mean()
    ssim_term = 1.0 - autodiff_ms_ssim(target, output)
    grad_term = autodiff_gradient_difference(target, output)
    return l2, ssim_term, grad_term, l2 + ssim_term + grad_term


ORACLE_SHAPES = [
    (1, 1, 4, 32, 32),
    (2, 1, 8, 64, 64),
    (2, 1, 8, 128, 128),
    (1, 3, 2, 24, 24),
    (1, 1, 2, 176, 176),
    (1, 1, 2, 45, 38),
]


class TestAgainstAutodiffOracle:
    @pytest.mark.parametrize(
        "shape", ORACLE_SHAPES, ids=["32", "64", "128", "rgb", "176-five-scales", "odd-45x38"]
    )
    def test_values_bitwise_and_gradient(self, shape):
        rng = np.random.default_rng(sum(shape))
        target = rng.random(shape)
        out0 = np.clip(target + rng.normal(0, 0.1, shape), 0.0, 1.0)
        if shape[-1] == 176:
            assert usable_scales(*shape[-2:]) == len(MS_SSIM_WEIGHTS)

        output = Tensor(out0, requires_grad=True)
        loss = recon_loss(Tensor(target), output)
        loss.total.backward()
        oracle_out = Tensor(out0, requires_grad=True)
        oracle = autodiff_recon_loss(Tensor(target), oracle_out)
        oracle[3].backward()

        got = (loss.l2, loss.ms_ssim, loss.gradient, float(loss.total.data))
        assert got == tuple(float(term.data) for term in oracle)
        want = oracle_out.grad
        assert np.max(np.abs(output.grad - want)) / np.max(np.abs(want)) < 1e-12

    def test_clamped_level_passes_no_gradient(self):
        # a negated first frame drives its factors below the clamp's floor,
        # where no gradient may flow; the second frame stays above it
        rng = np.random.default_rng(11)
        target = rng.random((1, 1, 2, 48, 48))
        out0 = np.clip(target + rng.normal(0, 0.1, target.shape), 0.0, 1.0)
        out0[:, :, 0] = 1.0 - target[:, :, 0]
        output = Tensor(out0, requires_grad=True)
        recon_loss(Tensor(target), output).total.backward()
        oracle_out = Tensor(out0, requires_grad=True)
        oracle = autodiff_recon_loss(Tensor(target), oracle_out)
        oracle[3].backward()
        want = oracle_out.grad
        assert np.max(np.abs(output.grad - want)) / np.max(np.abs(want)) < 1e-12


class TestNode:
    def test_one_node_whose_only_parent_is_the_output(self):
        rng = np.random.default_rng(8)
        output = Tensor(rng.random((1, 1, 1, 11, 11)), requires_grad=True)
        total = recon_loss(Tensor(rng.random((1, 1, 1, 11, 11))), output).total
        assert total._parents == (output,)

    def test_target_requiring_gradients_raises(self):
        rng = np.random.default_rng(9)
        target = Tensor(rng.random((1, 1, 1, 11, 11)), requires_grad=True)
        with pytest.raises(ValueError, match="target"):
            recon_loss(target, Tensor(rng.random((1, 1, 1, 11, 11)), requires_grad=True))

    def test_records_nothing_without_gradients(self):
        rng = np.random.default_rng(10)
        target = Tensor(rng.random((1, 1, 1, 11, 11)))
        output = Tensor(rng.random((1, 1, 1, 11, 11)), requires_grad=True)
        recorded = recon_loss(target, output).total
        plain = recon_loss(target, Tensor(output.data)).total
        assert recorded.requires_grad and recorded._parents == (output,)
        assert not plain.requires_grad and plain._parents == () and plain._backward is None
        assert float(recorded.data) == float(plain.data)


# ------------------------------------------------------------ loop references


def gaussian_window_2d(size=11, sigma=1.5):
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    g = g / g.sum()
    return np.outer(g, g)


def ssim_cs_loops(img1, img2, size=11, sigma=1.5):
    """Windowed SSIM by explicit position loops; returns (mean ssim, mean cs)."""
    win = gaussian_window_2d(size, sigma)
    h, w = img1.shape
    ssim_vals, cs_vals = [], []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            p1 = img1[i : i + size, j : j + size]
            p2 = img2[i : i + size, j : j + size]
            mu1, mu2 = (win * p1).sum(), (win * p2).sum()
            s1 = (win * p1 * p1).sum() - mu1 * mu1
            s2 = (win * p2 * p2).sum() - mu2 * mu2
            s12 = (win * p1 * p2).sum() - mu1 * mu2
            lum = (2 * mu1 * mu2 + C1) / (mu1 * mu1 + mu2 * mu2 + C1)
            cs = (2 * s12 + C2) / (s1 + s2 + C2)
            ssim_vals.append(lum * cs)
            cs_vals.append(cs)
    return float(np.mean(ssim_vals)), float(np.mean(cs_vals))


def halve_loops(img):
    h, w = img.shape
    out = np.zeros((h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            out[i, j] = img[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean()
    return out


def ms_ssim_loops(img1, img2, scales):
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()
    value = 1.0
    for level in range(scales):
        ssim, cs = ssim_cs_loops(img1, img2)
        factor = ssim if level == scales - 1 else cs
        value *= max(factor, 1e-6) ** weights[level]
        if level < scales - 1:
            img1, img2 = halve_loops(img1), halve_loops(img2)
    return value


def ssim_term(x, y):
    """The loss's 1 - MS-SSIM term of two clips."""
    return recon_loss(Tensor(x), Tensor(y)).ms_ssim


class TestMsSsim:
    def test_identical_clips_score_one(self):
        x = np.random.default_rng(0).random((1, 1, 2, 32, 32))
        assert ssim_term(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_pair_scores_below_one(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 1, 1, 32, 32))
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        assert ssim_term(x, y) > 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_windowed_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.random((2, 26, 26))
        noisy = np.clip(frames + rng.normal(0, 0.05, frames.shape), 0, 1)
        scales = usable_scales(26, 26)
        assert scales == 2
        want = np.mean([ms_ssim_loops(frames[t], noisy[t], scales) for t in range(2)])
        got = 1.0 - ssim_term(frames.reshape(1, 1, 2, 26, 26), noisy.reshape(1, 1, 2, 26, 26))
        assert got == pytest.approx(want, abs=1e-10)

    def test_scale_count_by_frame_side(self):
        # 5 scales from 176 pixels a side, 4 from 88, 3 from 44, 2 from 22,
        # 1 from 11; the shorter side decides
        sides = {256: 5, 176: 5, 175: 4, 88: 4, 87: 3, 64: 3, 44: 3, 43: 2, 22: 2, 21: 1,
                 11: 1, 10: 0}
        assert {side: usable_scales(side, side) for side in sides} == sides
        assert usable_scales(10, 64) == usable_scales(64, 10) == 0
        assert usable_scales(64, 300) == 3

    def test_one_scale_takes_the_whole_weight(self):
        # a 16x16 frame takes one scale, whose renormalized weight is 1, so
        # the term is 1 - SSIM; the unrenormalized 0.0448 would give
        # 1 - SSIM**0.0448
        rng = np.random.default_rng(2)
        x = rng.random((1, 1, 1, 16, 16))
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        assert usable_scales(16, 16) == 1
        ssim, _ = ssim_cs_loops(x[0, 0, 0], y[0, 0, 0])
        assert ssim_term(x, y) == pytest.approx(1.0 - ssim, abs=1e-12)

    def test_channel_mean_luminance(self):
        # an rgb clip whose channel mean equals a gray clip scores identically
        rng = np.random.default_rng(3)
        rgb = rng.random((1, 3, 1, 24, 24))
        gray = rgb.mean(axis=1, keepdims=True)
        other = rng.random((1, 1, 1, 24, 24))
        a = ssim_term(rgb, np.repeat(other, 3, axis=1))
        b = ssim_term(gray, other)
        assert a == pytest.approx(b, abs=1e-12)


def gradient_term(x, y):
    return recon_loss(Tensor(x), Tensor(y)).gradient


class TestGradientTerm:
    def test_constant_images_have_zero_term(self):
        x = np.full((1, 1, 2, 12, 12), 0.3)
        y = np.full((1, 1, 2, 12, 12), 0.9)
        assert gradient_term(x, y) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x, y = rng.random((1, 1, 2, 12, 12)), rng.random((1, 1, 2, 12, 12))
        assert gradient_term(x, y) == pytest.approx(gradient_term(y, x), abs=1e-15)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        x = rng.random((1, 1, 1, 12, 13))
        y = rng.random((1, 1, 1, 12, 13))
        total, count = 0.0, 0
        img1, img2 = x[0, 0, 0], y[0, 0, 0]
        for i in range(11):
            for j in range(13):
                total += abs((img1[i + 1, j] - img1[i, j]) - (img2[i + 1, j] - img2[i, j]))
                count += 1
        for i in range(12):
            for j in range(12):
                total += abs((img1[i, j + 1] - img1[i, j]) - (img2[i, j + 1] - img2[i, j]))
                count += 1
        assert gradient_term(x, y) == pytest.approx(total / count, abs=1e-12)


class TestReconLoss:
    def test_identical_pair_is_zero(self):
        x = Tensor(np.random.default_rng(6).random((1, 1, 2, 32, 32)))
        loss = recon_loss(x, x)
        assert float(loss.total.data) == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_vs_zero_l2(self):
        x = Tensor(np.full((1, 1, 2, 16, 16), 0.5))
        y = Tensor(np.zeros((1, 1, 2, 16, 16)))
        loss = recon_loss(x, y)
        assert loss.l2 == pytest.approx(0.25, abs=1e-15)
        assert loss.gradient == 0.0
        assert loss.ms_ssim > 0.0

    def test_total_is_equal_weight_sum(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.random((1, 1, 1, 24, 24)))
        y = Tensor(rng.random((1, 1, 1, 24, 24)))
        loss = recon_loss(x, y)
        assert float(loss.total.data) == loss.l2 + loss.ms_ssim + loss.gradient

    def test_frame_below_the_window_raises(self):
        x = Tensor(np.zeros((1, 1, 1, SSIM_WINDOW - 1, 16)))
        with pytest.raises(ShapeError, match=f"smaller than the SSIM window {SSIM_WINDOW}"):
            recon_loss(x, x)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.random((1, 1, 2, 12, 12))
        y0 = np.clip(target + rng.normal(0, 0.1, target.shape), 0.05, 0.95)

        out = Tensor(y0, requires_grad=True)
        recon_loss(Tensor(target), out).total.backward()

        def f(arr):
            return float(recon_loss(Tensor(target), Tensor(arr)).total.data)

        numeric = numerical_gradient(f, y0.copy())
        assert max_relative_error(out.grad, numeric) < 1e-4
