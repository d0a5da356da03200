"""Scoring statistics checked against brute-force oracles."""

import numpy as np
import pytest

from flowvad.errors import ShapeError
from flowvad.scoring import (
    aggregate_windows,
    expand_static,
    fuse,
    minmax_normalize,
    nll_score,
    patch_max_error,
    roc_auc_eer,
    roc_curve,
)


def patch_max_loops(target, output, patch, stride):
    """All-loop reference: same position set, explicit patch means."""
    err = np.abs(target - output)[0].mean(axis=0)
    t, h, w = err.shape

    def positions(size):
        pos = list(range(0, size - patch + 1, stride))
        if pos[-1] != size - patch:
            pos.append(size - patch)
        return pos

    out = np.zeros(t)
    for f in range(t):
        best = -np.inf
        for i in positions(h):
            for j in positions(w):
                total = 0.0
                for a in range(patch):
                    for b in range(patch):
                        total += err[f, i + a, j + b]
                best = max(best, total / (patch * patch))
        out[f] = best
    return out


def auc_pairs(scores, labels):
    """Mann-Whitney statistic: credit per positive-negative pair, half on ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (len(pos) * len(neg))


class TestPatchMax:
    def test_uniform_error(self):
        t = np.full((1, 3, 4, 32, 32), 0.8)
        o = np.full((1, 3, 4, 32, 32), 0.5)
        assert np.allclose(patch_max_error(t, o, patch=16, stride=4), 0.3)

    def test_zero_error(self, rng):
        x = rng.uniform(size=(1, 1, 2, 32, 32))
        assert np.allclose(patch_max_error(x, x.copy()), 0.0)

    def test_small_block(self):
        t = np.zeros((1, 1, 1, 64, 64))
        o = np.zeros((1, 1, 1, 64, 64))
        o[0, 0, 0, 30:34, 30:34] = 1.0
        r = patch_max_error(t, o, patch=16, stride=4)
        assert r[0] == pytest.approx(16 / 256)

    @pytest.mark.parametrize("patch,stride", [(4, 1), (4, 2), (7, 3), (16, 4)])
    def test_matches_loops(self, patch, stride):
        rng = np.random.default_rng(patch * 10 + stride)
        t = rng.uniform(size=(1, 2, 3, 24, 20))
        o = rng.uniform(size=(1, 2, 3, 24, 20))
        got = patch_max_error(t, o, patch=patch, stride=stride)
        want = patch_max_loops(t, o, patch, stride)
        assert np.allclose(got, want, atol=1e-10)

    def test_monotone_in_single_pixel_error(self, rng):
        t = np.zeros((1, 1, 1, 16, 16))
        o = rng.uniform(0, 0.3, size=(1, 1, 1, 16, 16))
        before = patch_max_error(t, o, patch=8, stride=2)[0]
        o2 = o.copy()
        o2[0, 0, 0, 5, 5] += 0.5
        after = patch_max_error(t, o2, patch=8, stride=2)[0]
        assert after >= before

    def test_patch_too_big_rejected(self):
        with pytest.raises(ShapeError):
            patch_max_error(np.zeros((1, 1, 1, 8, 8)), np.zeros((1, 1, 1, 8, 8)), patch=16)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            patch_max_error(np.zeros((1, 1, 1, 16, 16)), np.zeros((1, 1, 2, 16, 16)))

    def test_channel_mean_error(self):
        t = np.zeros((1, 2, 1, 8, 8))
        o = np.zeros((1, 2, 1, 8, 8))
        o[0, 0] = 1.0  # error on one of two channels
        assert patch_max_error(t, o, patch=8, stride=1)[0] == pytest.approx(0.5)


class TestNllSeries:
    def test_expand_static_spans(self):
        got = expand_static([1.0, 2.0], num_frames=8, tau=4)
        assert np.array_equal(got, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_expand_static_tail_forward_fill(self):
        got = expand_static([3.0, 5.0], num_frames=11, tau=4)
        assert np.array_equal(got, [3, 3, 3, 3, 5, 5, 5, 5, 5, 5, 5])

    def test_minmax_basic(self):
        assert np.allclose(minmax_normalize([2, 4, 6]), [0, 0.5, 1])

    def test_minmax_constant_is_zero(self):
        assert np.array_equal(minmax_normalize([7, 7, 7]), [0, 0, 0])

    def test_minmax_single_frame_warns(self):
        with pytest.warns(UserWarning):
            out = minmax_normalize([3.0])
        assert np.array_equal(out, [0.0])

    def test_nll_score_hand_example(self):
        static = expand_static([1.0], num_frames=4, tau=4)
        dynamic = np.array([0.0, 1.0, 2.0, 3.0])
        got = nll_score(static, dynamic)
        assert np.allclose(got, [0, 1 / 3, 2 / 3, 1])

    def test_nll_score_static_only(self):
        # a stream without a flow scores all zeros
        got = nll_score([2.0, 4.0, 6.0], np.zeros(3))
        assert np.allclose(got, [0, 0.5, 1])

    def test_nll_length_mismatch(self):
        with pytest.raises(ShapeError):
            nll_score([1.0, 2.0], [1.0])


class TestFusion:
    def test_lambda_zero_is_recon(self, rng):
        r = rng.uniform(size=10)
        l = rng.uniform(size=10)
        assert np.array_equal(fuse(r, l, 0.0), r)

    def test_hand_example(self):
        got = fuse([0.0, 1.0], [1.0, 0.0], 0.5)
        assert np.allclose(got, [0.5, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fuse([1.0], [1.0, 2.0], 0.5)


class TestWindowAggregation:
    def test_single_window(self):
        got = aggregate_windows([np.array([1.0, 2.0, 3.0])], [0], 3)
        assert np.array_equal(got, [1, 2, 3])

    def test_overlapping_windows_mean(self):
        w1 = np.array([1.0, 1.0, 1.0])
        w2 = np.array([3.0, 3.0, 3.0])
        got = aggregate_windows([w1, w2], [0, 1], 4)
        assert np.allclose(got, [1, 2, 2, 3])

    def test_stride_one_counts(self):
        vals = [np.ones(3) * k for k in range(4)]
        got = aggregate_windows(vals, [0, 1, 2, 3], 6)
        # frame 2 sees windows 0,1,2; frame 3 sees 1,2,3
        assert got[2] == pytest.approx(1.0)
        assert got[3] == pytest.approx(2.0)

    def test_uncovered_frame_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_windows([np.ones(2)], [0], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_windows([np.ones(3)], [2], 4)


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        auc, eer, _ = roc_auc_eer(scores, labels)
        assert auc == pytest.approx(1.0)
        assert eer == pytest.approx(0.0)

    def test_reversed_scores(self):
        auc, eer, _ = roc_auc_eer([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc == pytest.approx(0.0)
        assert eer == pytest.approx(1.0)

    def test_hand_example(self):
        auc, _, _ = roc_auc_eer([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
        assert auc == pytest.approx(0.75)

    def test_curve_endpoints(self, rng):
        scores = rng.uniform(size=50)
        labels = (rng.uniform(size=50) < 0.4).astype(int)
        fpr, tpr = roc_curve(scores, labels)
        assert fpr[0] == tpr[0] == 0.0
        assert fpr[-1] == tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_auc_equals_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
        labels = (rng.uniform(size=n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        auc, _, _ = roc_auc_eer(scores, labels)
        assert auc == pytest.approx(auc_pairs(scores, labels), abs=1e-9)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(99)
        scores = rng.uniform(size=10000)
        labels = (rng.uniform(size=10000) < 0.5).astype(int)
        auc, eer, _ = roc_auc_eer(scores, labels)
        assert auc == pytest.approx(0.5, abs=0.02)
        assert eer == pytest.approx(0.5, abs=0.02)

    def test_eer_crossing_property(self):
        rng = np.random.default_rng(7)
        scores = np.concatenate([rng.normal(1.0, 1.0, 300), rng.normal(0.0, 1.0, 300)])
        labels = np.concatenate([np.ones(300, int), np.zeros(300, int)])
        _, eer, (fpr, tpr) = roc_auc_eer(scores, labels)
        # the interpolated point sits on the fpr = 1 - tpr diagonal
        fnr = 1 - tpr
        k = int(np.searchsorted(fpr - fnr >= 0, True))
        lo = max(abs(fpr[k - 1] - eer), abs(fnr[k] - eer))
        assert fpr[k - 1] - 1e-12 <= eer <= fpr[k] + 1e-12
        assert fnr[k] - 1e-12 <= eer <= fnr[k - 1] + 1e-12
        assert lo < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc_eer([0.1, 0.2], [1, 1])

    def test_tied_scores_get_half_credit(self):
        auc, _, _ = roc_auc_eer([0.5, 0.5], [1, 0])
        assert auc == pytest.approx(0.5)
