"""Reconstruction loss terms against brute-force reference implementations."""

import numpy as np
import pytest

from flowvad.losses import (
    MS_SSIM_WEIGHTS,
    gradient_difference,
    ms_ssim,
    recon_loss,
    usable_scales,
)
from flowvad.tensor import Tensor

from numeric import max_relative_error, numerical_gradient

C1, C2 = 0.01**2, 0.03**2


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


class TestMsSsim:
    def test_identical_clips_score_one(self):
        x = Tensor(np.random.default_rng(0).random((1, 1, 2, 32, 32)))
        with pytest.warns(UserWarning):
            assert ms_ssim(x, x).item() == pytest.approx(1.0, abs=1e-12)

    def test_noisy_pair_scores_below_one(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 1, 1, 32, 32))
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
        with pytest.warns(UserWarning):
            score = ms_ssim(Tensor(x), Tensor(y)).item()
        assert score < 1.0 - 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_windowed_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        frames = rng.random((2, 26, 26))
        noisy = np.clip(frames + rng.normal(0, 0.05, frames.shape), 0, 1)
        scales = usable_scales(26, 26)
        assert scales == 2
        want = np.mean([ms_ssim_loops(frames[t], noisy[t], scales) for t in range(2)])
        x = Tensor(frames[None, None].transpose(0, 1, 2, 3, 4).reshape(1, 1, 2, 26, 26))
        y = Tensor(noisy.reshape(1, 1, 2, 26, 26))
        with pytest.warns(UserWarning):
            got = ms_ssim(x, y).item()
        assert got == pytest.approx(want, abs=1e-10)

    def test_scale_count_shrinks_with_warning(self):
        assert usable_scales(256, 256) == 5
        assert usable_scales(64, 64) == 3
        assert usable_scales(11, 11) == 1
        assert usable_scales(10, 64) == 0
        x = Tensor(np.random.default_rng(2).random((1, 1, 1, 16, 16)))
        with pytest.warns(UserWarning, match="scales"):
            ms_ssim(x, x)

    def test_channel_mean_luminance(self):
        # an rgb clip whose channel mean equals a gray clip scores identically
        rng = np.random.default_rng(3)
        rgb = rng.random((1, 3, 1, 24, 24))
        gray = rgb.mean(axis=1, keepdims=True)
        other = rng.random((1, 1, 1, 24, 24))
        with pytest.warns(UserWarning):
            a = ms_ssim(Tensor(rgb), Tensor(np.repeat(other, 3, axis=1))).item()
            b = ms_ssim(Tensor(gray), Tensor(other)).item()
        assert a == pytest.approx(b, abs=1e-12)


class TestGradientTerm:
    def test_constant_images_have_zero_term(self):
        x = Tensor(np.full((1, 1, 2, 8, 8), 0.3))
        y = Tensor(np.full((1, 1, 2, 8, 8), 0.9))
        assert gradient_difference(x, y).item() == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x, y = Tensor(rng.random((1, 1, 2, 8, 8))), Tensor(rng.random((1, 1, 2, 8, 8)))
        assert gradient_difference(x, y).item() == pytest.approx(
            gradient_difference(y, x).item(), abs=1e-15
        )

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        x = rng.random((1, 1, 1, 6, 7))
        y = rng.random((1, 1, 1, 6, 7))
        total, count = 0.0, 0
        img1, img2 = x[0, 0, 0], y[0, 0, 0]
        for i in range(5):
            for j in range(7):
                total += abs((img1[i + 1, j] - img1[i, j]) - (img2[i + 1, j] - img2[i, j]))
                count += 1
        for i in range(6):
            for j in range(6):
                total += abs((img1[i, j + 1] - img1[i, j]) - (img2[i, j + 1] - img2[i, j]))
                count += 1
        got = gradient_difference(Tensor(x), Tensor(y)).item()
        assert got == pytest.approx(total / count, abs=1e-12)


class TestReconLoss:
    def test_identical_pair_is_zero(self):
        x = Tensor(np.random.default_rng(6).random((1, 1, 2, 32, 32)))
        with pytest.warns(UserWarning):
            loss = recon_loss(x, x)
        assert loss.total.item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_vs_zero_l2(self):
        x = Tensor(np.full((1, 1, 2, 16, 16), 0.5))
        y = Tensor(np.zeros((1, 1, 2, 16, 16)))
        with pytest.warns(UserWarning):
            loss = recon_loss(x, y)
        assert loss.l2.item() == pytest.approx(0.25, abs=1e-15)
        assert loss.gradient.item() == 0.0
        assert loss.ms_ssim.item() > 0.0

    def test_total_is_equal_weight_sum(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.random((1, 1, 1, 24, 24)))
        y = Tensor(rng.random((1, 1, 1, 24, 24)))
        with pytest.warns(UserWarning):
            loss = recon_loss(x, y)
        assert loss.total.item() == pytest.approx(
            loss.l2.item() + loss.ms_ssim.item() + loss.gradient.item(), abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_loss_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.random((1, 1, 2, 12, 12))
        y0 = np.clip(target + rng.normal(0, 0.1, target.shape), 0.05, 0.95)

        out = Tensor(y0, requires_grad=True)
        with pytest.warns(UserWarning):
            recon_loss(Tensor(target), out).total.backward()

        def f(arr):
            with pytest.warns(UserWarning):
                return recon_loss(Tensor(target), Tensor(arr)).total.item()

        numeric = numerical_gradient(f, y0.copy())
        assert max_relative_error(out.grad, numeric) < 1e-4
