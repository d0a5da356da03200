"""3-D convolution and its transpose: values, shapes, adjointness, gradients.

Expected values come from independent nested-loop implementations written
here, never from the code under test.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from flowvad import tensor
from flowvad.autoencoder import _DYNAMIC_GEOM, _STATIC_GEOM, Conv3dLayer, _decoder_geom
from flowvad.errors import ShapeError
from flowvad.tensor import LEAKY_SLOPE, Tensor

from graph_ops import conv3d, conv_transpose3d, leaky_relu
from numeric import max_relative_error, numerical_gradient


def conv3d_loops(x, w, stride, padding):
    """Reference convolution: direct summation, no reuse of package code."""
    n, cin, d, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    do = (d + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    y = np.zeros((n, cout, do, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for zi in range(do):
                for yi in range(ho):
                    for xi in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for a in range(kt):
                                for b in range(kh):
                                    for c in range(kw):
                                        acc += (
                                            xp[ni, ci, zi * st + a, yi * sh + b, xi * sw + c]
                                            * w[co, ci, a, b, c]
                                        )
                        y[ni, co, zi, yi, xi] = acc
    return y


def conv_transpose3d_loops(x, w, stride, padding, output_padding):
    """Reference transposed convolution by explicit scatter."""
    n, cin, d, h, wd = x.shape
    _, cout, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    ot, oh, ow = output_padding
    do = (d - 1) * st - 2 * pt + kt + ot
    ho = (h - 1) * sh - 2 * ph + kh + oh
    wo = (wd - 1) * sw - 2 * pw + kw + ow
    full = np.zeros((n, cout, do + 2 * pt, ho + 2 * ph, wo + 2 * pw))
    for ni in range(n):
        for ci in range(cin):
            for zi in range(d):
                for yi in range(h):
                    for xi in range(wd):
                        v = x[ni, ci, zi, yi, xi]
                        for co in range(cout):
                            for a in range(kt):
                                for b in range(kh):
                                    for c in range(kw):
                                        zz = zi * st + a
                                        yy = yi * sh + b
                                        xx = xi * sw + c
                                        if zz < do + 2 * pt and yy < ho + 2 * ph and xx < wo + 2 * pw:
                                            full[ni, co, zz, yy, xx] += v * w[ci, co, a, b, c]
    return full[:, :, pt : pt + do, ph : ph + ho, pw : pw + wo]


class TestConvValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "stride,padding,kernel",
        [((1, 1, 1), (0, 0, 0), (1, 3, 3)), ((1, 2, 2), (1, 1, 1), (3, 3, 3)), ((2, 2, 2), (2, 1, 1), (5, 3, 3))],
    )
    def test_matches_loop_reference(self, seed, stride, padding, kernel):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 6, 7, 7))
        w = rng.normal(size=(4, 3, *kernel))
        got = conv3d(Tensor(x), Tensor(w), stride, padding).data
        want = conv3d_loops(x, w, stride, padding)
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 3, 4, 4))
        w = np.ones((1, 1, 1, 1, 1))
        out = conv3d(Tensor(x), Tensor(w)).data
        assert np.allclose(out, x)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize(
        "stride,padding,outpad",
        [((1, 1, 1), (1, 1, 1), (0, 0, 0)), ((2, 2, 2), (1, 1, 1), (1, 1, 1)), ((1, 2, 2), (0, 1, 1), (0, 0, 1))],
    )
    def test_transpose_matches_loop_reference(self, seed, stride, padding, outpad):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 3, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3, 3))
        got = conv_transpose3d(Tensor(x), Tensor(w), stride, padding, outpad).data
        want = conv_transpose3d_loops(x, w, stride, padding, outpad)
        assert np.allclose(got, want, atol=1e-12)


class TestConvShapes:
    def test_downsampling_shape_rule(self):
        # floor((d + 2p - k) / s) + 1 on every axis
        x = Tensor(np.zeros((1, 3, 16, 32, 32)))
        w = Tensor(np.zeros((12, 3, 5, 3, 3)))
        out = conv3d(x, w, stride=(1, 2, 2), padding=(2, 1, 1))
        assert out.shape == (1, 12, 16, 16, 16)

    def test_temporal_subsample_shape(self):
        # kernel 5 with stride 4 and padding 2 maps length 16 to 4
        x = Tensor(np.zeros((1, 8, 16, 4, 4)))
        w = Tensor(np.zeros((8, 8, 5, 1, 1)))
        out = conv3d(x, w, stride=(4, 1, 1), padding=(2, 0, 0))
        assert out.shape == (1, 8, 4, 4, 4)

    def test_upsampling_shape_rule(self):
        # (d - 1) * s - 2p + k + op doubles dims with s=2, k=3, p=1, op=1
        x = Tensor(np.zeros((1, 16, 4, 8, 8)))
        w = Tensor(np.zeros((16, 8, 3, 3, 3)))
        out = conv_transpose3d(x, w, stride=(2, 2, 2), padding=(1, 1, 1), output_padding=(1, 1, 1))
        assert out.shape == (1, 8, 8, 16, 16)

    def test_kernel_larger_than_padded_input_raises(self):
        with pytest.raises(ShapeError) as err:
            conv3d(Tensor(np.zeros((1, 1, 2, 2, 2))), Tensor(np.zeros((1, 1, 5, 5, 5))))
        assert "(2, 2, 2)" in str(err.value)

    def test_channel_mismatch_raises_with_shapes(self):
        with pytest.raises(ShapeError) as err:
            conv3d(Tensor(np.zeros((1, 3, 4, 4, 4))), Tensor(np.zeros((2, 4, 1, 1, 1))))
        msg = str(err.value)
        assert "(1, 3, 4, 4, 4)" in msg and "(2, 4, 1, 1, 1)" in msg

    def test_output_padding_must_stay_below_stride(self):
        with pytest.raises(ShapeError):
            conv_transpose3d(
                Tensor(np.zeros((1, 1, 2, 2, 2))),
                Tensor(np.zeros((1, 1, 3, 3, 3))),
                stride=(1, 1, 1),
                output_padding=(1, 0, 0),
            )


class TestAdjointness:
    """<conv(x, w), y> must equal <x, conv_transpose(y, w)> exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_inner_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        stride, padding = (1, 2, 2), (1, 1, 1)
        x = rng.normal(size=(2, 3, 4, 6, 6))
        w = rng.normal(size=(5, 3, 3, 3, 3))
        fwd = conv3d(Tensor(x), Tensor(w), stride, padding).data
        y = rng.normal(size=fwd.shape)
        # output_padding recovers the original dims exactly
        opad = tuple(
            xd - ((yd - 1) * s - 2 * p + k)
            for xd, yd, s, p, k in zip(x.shape[2:], fwd.shape[2:], stride, padding, (3, 3, 3))
        )
        back = conv_transpose3d(Tensor(y), Tensor(w), stride, padding, opad).data
        lhs = float(np.sum(fwd * y))
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


class TestConvGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_conv3d_input_and_weight_grads(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(2, 2, 3, 4, 4))
        w0 = rng.normal(size=(3, 2, 3, 3, 3))
        stride, padding = (1, 2, 2), (1, 1, 1)

        xt = Tensor(x0, requires_grad=True)
        wt = Tensor(w0, requires_grad=True)
        (conv3d(xt, wt, stride, padding) ** 2).sum().backward()

        def loss_x(a):
            return float((conv3d_loops(a, w0, stride, padding) ** 2).sum())

        def loss_w(a):
            return float((conv3d_loops(x0, a, stride, padding) ** 2).sum())

        assert max_relative_error(xt.grad, numerical_gradient(loss_x, x0.copy())) < 1e-4
        assert max_relative_error(wt.grad, numerical_gradient(loss_w, w0.copy())) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_transpose_input_and_weight_grads(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(1, 3, 3, 3, 3))
        w0 = rng.normal(size=(3, 2, 3, 3, 3))
        stride, padding, opad = (2, 2, 2), (1, 1, 1), (1, 1, 1)

        xt = Tensor(x0, requires_grad=True)
        wt = Tensor(w0, requires_grad=True)
        (conv_transpose3d(xt, wt, stride, padding, opad) ** 2).sum().backward()

        def loss_x(a):
            return float((conv_transpose3d_loops(a, w0, stride, padding, opad) ** 2).sum())

        def loss_w(a):
            return float((conv_transpose3d_loops(x0, a, stride, padding, opad) ** 2).sum())

        assert max_relative_error(xt.grad, numerical_gradient(loss_x, x0.copy())) < 1e-4
        assert max_relative_error(wt.grad, numerical_gradient(loss_w, w0.copy())) < 1e-4


# Every (kernel, stride, padding) the autoencoder's plain convs use, with a
# small input that each one maps to a non-trivial output.
AE_CONVS = (
    [pytest.param(*g, (2, 4, 4), id=f"static{i + 1}") for i, g in enumerate(_STATIC_GEOM)]
    + [pytest.param(*g, (3, 4, 4), id=f"dynamic{i + 1}") for i, g in enumerate(_DYNAMIC_GEOM)]
    + [
        pytest.param((5, 1, 1), (tau, 1, 1), (2, 0, 0), (2 * tau, 2, 2), id=f"lateral-tau{tau}")
        for tau in (1, 2, 3, 4)
    ]
)

# Every decoder stage for tau 1-4; tau 3 is the only stride-3 layer, with
# output_padding (2, 1, 1).
AE_DECONVS = [
    pytest.param(*geom, id="s{}{}{}-op{}{}{}".format(*geom[1], *geom[3]))
    for geom in sorted({g for tau in (1, 2, 3, 4) for g in _decoder_geom(tau)})
]


class TestAutoencoderGeometries:
    @pytest.mark.parametrize("kernel,stride,padding,dims", AE_CONVS)
    def test_conv_matches_loop_reference(self, kernel, stride, padding, dims):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, *dims))
        w = rng.normal(size=(4, 3, *kernel))
        got = conv3d(Tensor(x), Tensor(w), stride, padding).data
        assert np.allclose(got, conv3d_loops(x, w, stride, padding), atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding,outpad", AE_DECONVS)
    def test_transpose_matches_loop_reference(self, kernel, stride, padding, outpad):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 2, 3, 3))
        w = rng.normal(size=(3, 4, *kernel))
        got = conv_transpose3d(Tensor(x), Tensor(w), stride, padding, outpad).data
        want = conv_transpose3d_loops(x, w, stride, padding, outpad)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding,dims", AE_CONVS)
    def test_conv_grads(self, kernel, stride, padding, dims):
        rng = np.random.default_rng(13)
        x0 = rng.normal(size=(1, 2, *dims))
        w0 = rng.normal(size=(2, 2, *kernel))
        xt = Tensor(x0, requires_grad=True)
        wt = Tensor(w0, requires_grad=True)
        (conv3d(xt, wt, stride, padding) ** 2).sum().backward()

        def loss_x(a):
            return float((conv3d_loops(a, w0, stride, padding) ** 2).sum())

        def loss_w(a):
            return float((conv3d_loops(x0, a, stride, padding) ** 2).sum())

        assert max_relative_error(xt.grad, numerical_gradient(loss_x, x0.copy())) < 1e-4
        assert max_relative_error(wt.grad, numerical_gradient(loss_w, w0.copy())) < 1e-4

    @pytest.mark.parametrize("kernel,stride,padding,outpad", AE_DECONVS)
    def test_transpose_grads(self, kernel, stride, padding, outpad):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(1, 2, 2, 2, 2))
        w0 = rng.normal(size=(2, 2, *kernel))
        xt = Tensor(x0, requires_grad=True)
        wt = Tensor(w0, requires_grad=True)
        (conv_transpose3d(xt, wt, stride, padding, outpad) ** 2).sum().backward()

        def loss_x(a):
            return float((conv_transpose3d_loops(a, w0, stride, padding, outpad) ** 2).sum())

        def loss_w(a):
            return float((conv_transpose3d_loops(x0, a, stride, padding, outpad) ** 2).sum())

        assert max_relative_error(xt.grad, numerical_gradient(loss_x, x0.copy())) < 1e-4
        assert max_relative_error(wt.grad, numerical_gradient(loss_w, w0.copy())) < 1e-4


# Which operands require gradients: both, the input frozen, the weight frozen.
TRAINABLE = [
    pytest.param(True, True, id="both"),
    pytest.param(False, True, id="x-frozen"),
    pytest.param(True, False, id="w-frozen"),
]


def batch3_case(transpose):
    """Batch-3 operands at the static4 geometry, or the strided decode3
    geometry (tau 4) for the transpose, and the bytes of one sample's im2col
    columns: (cin * k, output positions) for the conv, (cout * k, input
    positions) for the transpose's backward."""
    rng = np.random.default_rng(16)
    if transpose:
        kernel, stride, padding, outpad = _decoder_geom(4)[2]
        x0 = rng.normal(size=(3, 2, 2, 2, 2))
        w0 = rng.normal(size=(2, 2, *kernel))
        cols_bytes = 2 * 27 * 8 * 8

        def op(x, w):
            return conv_transpose3d(x, w, stride, padding, outpad)

        def loops(x, w):
            return conv_transpose3d_loops(x, w, stride, padding, outpad)

    else:
        kernel, stride, padding = _STATIC_GEOM[3]
        x0 = rng.normal(size=(3, 2, 2, 4, 4))
        w0 = rng.normal(size=(2, 2, *kernel))
        cols_bytes = 2 * 27 * 32 * 8

        def op(x, w):
            return conv3d(x, w, stride, padding)

        def loops(x, w):
            return conv3d_loops(x, w, stride, padding)

    return x0, w0, op, loops, cols_bytes


def batch3_grads(transpose, x_trains, w_trains):
    x0, w0, op, _, _ = batch3_case(transpose)
    xt = Tensor(x0, requires_grad=x_trains)
    wt = Tensor(w0, requires_grad=w_trains)
    (op(xt, wt) ** 2).sum().backward()
    return xt.grad, wt.grad


class TestBatchOfThree:
    """Three samples: the weight gradient sums three per-sample terms, and
    the batch may run in one group or in several."""

    @pytest.mark.parametrize("x_trains,w_trains", TRAINABLE)
    @pytest.mark.parametrize("transpose", [False, True], ids=["static4", "decode3"])
    def test_values_and_grads(self, transpose, x_trains, w_trains):
        x0, w0, op, loops, _ = batch3_case(transpose)
        assert np.allclose(op(Tensor(x0), Tensor(w0)).data, loops(x0, w0), atol=1e-12)
        gx, gw = batch3_grads(transpose, x_trains, w_trains)

        def loss_x(a):
            return float((loops(a, w0) ** 2).sum())

        def loss_w(a):
            return float((loops(x0, a) ** 2).sum())

        if x_trains:
            assert max_relative_error(gx, numerical_gradient(loss_x, x0.copy())) < 1e-4
        else:
            assert gx is None
        if w_trains:
            assert max_relative_error(gw, numerical_gradient(loss_w, w0.copy())) < 1e-4
        else:
            assert gw is None

    @pytest.mark.parametrize("x_trains,w_trains", TRAINABLE)
    @pytest.mark.parametrize("transpose", [False, True], ids=["static4", "decode3"])
    @pytest.mark.parametrize("group", [1, 2])
    def test_grouped_batch_is_bitwise_one_group(
        self, monkeypatch, transpose, x_trains, w_trains, group
    ):
        # the default budget runs all three samples in one group
        want = batch3_grads(transpose, x_trains, w_trains)
        monkeypatch.setattr(tensor, "_COLS_BUDGET", group * batch3_case(transpose)[4])
        got = batch3_grads(transpose, x_trains, w_trains)
        for g, h in zip(got, want):
            assert (g is None and h is None) or np.array_equal(g, h)


def bits(a):
    """The raw float64 bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def scaled_error(got, want):
    """Largest |got - want| relative to the largest |want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def fused_case(transpose):
    """Batch-2 operands with a bias, at the decode3 geometry (tau 4, three
    output channels) for the transpose and the static4 geometry for the
    conv. Sample 0 is all zeros and bias 0 is 0.0, so channel 0 of sample 0
    has pre-activations that are exactly 0.0."""
    rng = np.random.default_rng(18)
    if transpose:
        kernel, stride, padding, outpad = _decoder_geom(4)[2]
        x0 = rng.normal(size=(2, 2, 2, 2, 2))
        w0 = rng.normal(size=(2, 3, *kernel))

        def op(x, w, b, leaky=False):
            return conv_transpose3d(x, w, stride, padding, outpad, b, leaky)

    else:
        kernel, stride, padding = _STATIC_GEOM[3]
        x0 = rng.normal(size=(2, 2, 2, 4, 4))
        w0 = rng.normal(size=(3, 2, *kernel))

        def op(x, w, b, leaky=False):
            return conv3d(x, w, stride, padding, b, leaky)

    x0[0] = 0.0
    b0 = rng.normal(size=3)
    b0[0] = 0.0
    return x0, w0, b0, op


def fused_run(transpose, reference):
    """Output and input, weight and bias gradients of the conv with its
    leaky ReLU fused, or (``reference``) of the plain conv followed by the
    separate leaky ReLU node of the same slope."""
    x0, w0, b0, op = fused_case(transpose)
    x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
    out = leaky_relu(op(x, w, b), LEAKY_SLOPE) if reference else op(x, w, b, True)
    probe = np.random.default_rng(19).normal(size=out.shape)
    data = out.data.copy()
    (out * Tensor(probe)).sum().backward()
    return data, x.grad, w.grad, b.grad


class TestFusedActivation:
    """A conv with its leaky ReLU is bitwise the plain conv followed by the
    leaky ReLU."""

    @pytest.mark.parametrize("transpose", [False, True], ids=["static4", "decode3"])
    def test_bitwise_plain_conv_then_leaky_relu(self, transpose):
        got = fused_run(transpose, reference=False)
        want = fused_run(transpose, reference=True)
        assert np.any(got[0][0, 0] == 0.0)  # exact-zero pre-activations are in the case
        for g, h in zip(got, want):
            assert np.array_equal(bits(g), bits(h))

    def test_in_place_activation_at_signed_zeros(self):
        # GEMM and tap sums never give -0.0, so the in-place forward and
        # backward are checked on their own against the separate node
        pre = np.array([-0.0, 0.0, -1.5, 2.0, -5e-324, 5e-324, -0.0, 0.0])
        probe = np.array([1.0, -2.0, 3.0, -4.0, 0.5, -0.5, -0.0, 0.0])
        t = Tensor(pre.copy(), requires_grad=True)
        want = leaky_relu(t, LEAKY_SLOPE)
        (want * Tensor(probe)).sum().backward()
        y = pre.copy()
        tensor._finish_block(y, None, True)
        grad = probe.copy()
        tensor._leaky_grad(grad, y)
        assert np.array_equal(bits(y), bits(want.data))
        assert np.array_equal(bits(grad), bits(t.grad))

    def test_slope_keeps_the_sign_of_the_input(self):
        # the paper's slope lies in [0, 1]: max(x, slope * x) is then the
        # leaky ReLU, and _leaky_grad and the transposed backward may read
        # the input's sign off the activated output
        assert LEAKY_SLOPE == 0.2 and 0.0 <= LEAKY_SLOPE <= 1.0
        pre = np.array([-3.0, -1e-300, -0.0, 0.0, 1e-300, 3.0])
        y = pre.copy()
        tensor._finish_block(y, None, True)
        assert np.array_equal(y, np.where(pre > 0.0, pre, LEAKY_SLOPE * pre))
        assert np.array_equal(y > 0.0, pre > 0.0)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_channel_blocks_are_bitwise_one_block(self, monkeypatch, channels):
        # the default budget forms all three channels' taps in one block;
        # a budget of one or two channels' taps splits them 1+1+1 or 2+1.
        # The smaller budget also splits the backward into position chunks
        # (rows or slabs): the weight gradient then sums over positions chunk
        # by chunk and moves by rounding only.
        want = fused_run(True, reference=False)
        positions = fused_case(True)[0][0, 0].size
        monkeypatch.setattr(tensor, "_COLS_BUDGET", channels * 27 * positions * 8)
        y, gx, gw, gb = fused_run(True, reference=False)
        for g, h in zip((y, gx, gb), (want[0], want[1], want[3])):
            assert np.array_equal(bits(g), bits(h))
        assert scaled_error(gw, want[2]) < 1e-12


class TestLayerBias:
    """The bias is added inside the conv; its value goes through the layer's
    call, which records no node, and its gradient through the layer's
    backward."""

    @pytest.mark.parametrize("transpose", [False, True])
    def test_bias_value_and_grad(self, transpose):
        rng = np.random.default_rng(15)
        kernel, stride, padding = (3, 3, 3), (1, 2, 2), (1, 1, 1)
        outpad = (0, 1, 1) if transpose else (0, 0, 0)
        layer = Conv3dLayer(rng, 2, 3, kernel, stride, padding, outpad, transpose=transpose)
        layer.params["bias"] = rng.normal(size=3)
        x0 = rng.normal(size=(2, 2, 2, 3, 3))
        w0 = layer.params["weight"]
        if transpose:
            y0 = conv_transpose3d_loops(x0, w0, stride, padding, outpad)
        else:
            y0 = conv3d_loops(x0, w0, stride, padding)

        out = layer(x0)
        assert np.allclose(out.data, y0 + layer.params["bias"].reshape(1, 3, 1, 1, 1), atol=1e-12)
        assert out._parents == () and not out.requires_grad
        # d sum(out^2) / d out; a transposed layer writes over its input, so it gets a copy
        layer.backward(x0.copy(), 2.0 * out.data)

        def loss_b(b):
            return float(((y0 + b.reshape(1, 3, 1, 1, 1)) ** 2).sum())

        numeric = numerical_gradient(loss_b, layer.params["bias"].copy())
        assert max_relative_error(layer.grads["bias"], numeric) < 1e-4


def conv_transpose3d_backward_full(x, w, gy, stride, padding):
    """Input and weight gradients of a transposed conv, given the gradient
    ``gy`` of its output: each sample's whole output gradient is zero-padded
    and im2col'd at once (no position chunks), the input gradient is one
    GEMM per sample and the weight gradient adds the per-sample GEMMs in
    sample order from zeros."""
    n, cin, *dims = x.shape
    k = w.shape[2:]
    pad = ((0, 0), (0, 0), *((pi, pi) for pi in padding))
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(gy, pad), k, axis=(2, 3, 4))
    windows = windows[:, :, :: stride[0], :: stride[1], :: stride[2]]
    windows = windows[:, :, : dims[0], : dims[1], : dims[2]]
    cols = windows.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, -1, np.prod(dims))
    w2 = w.reshape(cin, -1)
    gx = np.matmul(w2, cols).reshape(x.shape)
    gw = np.zeros(w2.shape)
    for part in np.matmul(x.reshape(n, cin, -1), cols.transpose(0, 2, 1)):
        gw += part
    return gx, gw.reshape(w.shape)


# The four decoder stages at tau 4 with the model's channel widths, on
# 16x16 frames: (input channels, output channels, input dims) per stage.
DECODER_STAGES = [
    pytest.param(i, cin, cout, dims, id=f"decode{i + 1}")
    for i, (cin, cout, dims) in enumerate(
        [(256, 256, (2, 4, 4)), (256, 128, (2, 4, 4)), (128, 96, (4, 8, 8)), (96, 1, (8, 16, 16))]
    )
] + [
    # decode3's strides with few channels: its input-gradient GEMMs take one
    # row each, so a small budget splits the strided grid into rows
    pytest.param(2, 4, 3, (4, 8, 8), id="decode3-narrow")
]


class TestChunkedTransposeBackward:
    """The transposed conv's backward in position chunks against the whole
    im2col of each sample's padded output gradient: output and bias gradient
    bitwise, input and weight gradients within 1e-12 relative (the chunked
    backward takes one input-gradient GEMM per run of rows and sums the
    weight gradient over positions chunk by chunk). The input gradient is
    bitwise the same under every budget."""

    @pytest.mark.parametrize("budget", ["default", "slabs", "rows"])
    @pytest.mark.parametrize("stage,cin,cout,dims", DECODER_STAGES)
    def test_matches_unchunked_backward(self, monkeypatch, stage, cin, cout, dims, budget):
        kernel, stride, padding, outpad = _decoder_geom(4)[stage]
        rng = np.random.default_rng(20 + stage)
        x0 = rng.normal(size=(2, cin, *dims))
        w0 = rng.normal(size=(cin, cout, *kernel)) / np.sqrt(cin * 27)
        b0 = rng.normal(size=cout)
        x_default = Tensor(x0, requires_grad=True)
        y_default = conv_transpose3d(
            x_default, Tensor(w0), stride, padding, outpad, Tensor(b0), True
        )
        probe = np.random.default_rng(21).normal(size=y_default.shape)
        (y_default * Tensor(probe)).sum().backward()
        row_bytes = cout * 27 * dims[2] * 8
        if budget != "default":
            # one slab per chunk, or three rows (whole runs) of one slab per chunk
            per_chunk = dims[1] * row_bytes if budget == "slabs" else 3 * row_bytes
            monkeypatch.setattr(tensor, "_COLS_BUDGET", per_chunk)
            run = tensor._gemm_rows(cin, cout, dims)
            chunks = tensor._position_chunks(dims, row_bytes, run)
            assert len(chunks) > 1
            assert all(c[0].stop - c[0].start == 1 for c in chunks)
            assert all((c[1].stop - c[1].start) % run == 0 for c in chunks)
            split = any(c[1].stop - c[1].start < dims[1] for c in chunks)
            assert split == (budget == "rows" and run < dims[1])
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = conv_transpose3d(x, w, stride, padding, outpad, b, True)
        gy = probe * np.where(out.data > 0.0, 1.0, LEAKY_SLOPE)
        (out * Tensor(probe)).sum().backward()
        gx, gw = conv_transpose3d_backward_full(x0, w0, gy, stride, padding)
        assert np.array_equal(bits(out.data), bits(y_default.data))
        assert np.array_equal(bits(b.grad), bits(gy.sum(axis=(0, 2, 3, 4))))
        # one GEMM per run of rows: the chunking leaves the input gradient bitwise
        assert np.array_equal(bits(x.grad), bits(x_default.grad))
        assert scaled_error(x.grad, gx) < 1e-12
        assert scaled_error(w.grad, gw) < 1e-12


# The frozen encoder's convs whose columns a large frame splits: static3 and
# static4 (stride 1) and the strided dynamic2, with few channels and small
# frames: (kernel, stride, padding, input dims).
CHUNKED_CONVS = [
    pytest.param(*_STATIC_GEOM[2], (3, 8, 8), id="static3"),
    pytest.param(*_STATIC_GEOM[3], (3, 8, 8), id="static4"),
    pytest.param(*_DYNAMIC_GEOM[1], (4, 12, 12), id="dynamic2"),
]


class TestChunkedConvForward:
    """A sample whose im2col columns exceed the budget forms them one chunk
    of output positions at a time (whole time slabs, or runs of rows of one
    slab), finishing each chunk's bias and leaky ReLU in place: the output
    is that of the whole-sample forward."""

    @pytest.mark.parametrize("budget", ["slabs", "rows"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("kernel,stride,padding,dims", CHUNKED_CONVS)
    def test_matches_whole_sample_forward(
        self, monkeypatch, kernel, stride, padding, dims, batch, budget
    ):
        rng = np.random.default_rng(22)
        x0 = rng.normal(size=(batch, 3, *dims))
        w0 = rng.normal(size=(4, 3, *kernel))
        b0 = rng.normal(size=4)

        def forward():
            return conv3d(Tensor(x0), Tensor(w0), stride, padding, Tensor(b0), True).data

        want = forward()  # the default budget holds a sample's columns at once
        out_dims = want.shape[2:]
        row_bytes = 3 * int(np.prod(kernel)) * out_dims[2] * 8
        # one slab per chunk, or two rows of one slab per chunk
        per_chunk = out_dims[1] * row_bytes if budget == "slabs" else 2 * row_bytes
        monkeypatch.setattr(tensor, "_COLS_BUDGET", per_chunk)
        chunks = tensor._position_chunks(out_dims, row_bytes, 1)
        assert len(chunks) == out_dims[0] * (1 if budget == "slabs" else -(-out_dims[1] // 2))
        got = forward()
        assert np.any(got < 0.0) and np.any(got > 0.0)  # both sides of the leaky ReLU
        assert np.array_equal(bits(got), bits(want)) or scaled_error(got, want) < 1e-15
        loops = conv3d_loops(x0, w0, stride, padding) + b0.reshape(1, -1, 1, 1, 1)
        assert np.allclose(got, leaky_relu(Tensor(loops), LEAKY_SLOPE).data, atol=1e-12)


def conv3d_backward_full(x, w, gy, stride, padding):
    """Input and weight gradients of a conv, given the gradient ``gy`` of
    its output: each sample's whole padded input is im2col'd at once (no
    position chunks), the input gradient scatter-adds each sample's tap
    products, one GEMM for all input channels, onto a zero padded grid in
    tap order and crops it, and the weight gradient adds the per-sample
    GEMMs in sample order from zeros."""
    n, cin, *dims = x.shape
    cout, _, *k = w.shape
    out_dims = gy.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), *((pi, pi) for pi in padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=(2, 3, 4))
    windows = windows[:, :, :: stride[0], :: stride[1], :: stride[2]]
    windows = windows[:, :, : out_dims[0], : out_dims[1], : out_dims[2]]
    cols = windows.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, -1, np.prod(out_dims))
    w2 = w.reshape(cout, -1)
    gy2 = gy.reshape(n, cout, -1)
    gw = np.zeros(w2.shape)
    gxp = np.zeros(xp.shape)
    for i in range(n):
        gw += gy2[i] @ cols[i].T
        taps = (w2.T @ gy2[i]).reshape(cin, *k, *out_dims)
        for tap in itertools.product(*(range(ki) for ki in k)):
            grid = tuple(slice(a, a + si * oi, si) for a, si, oi in zip(tap, stride, out_dims))
            gxp[(i, slice(None), *grid)] += taps[(slice(None), *tap)]
    crop = tuple(slice(pi, pi + d) for pi, d in zip(padding, dims))
    return gxp[(slice(None), slice(None), *crop)], gw.reshape(w.shape)


class TestChunkedConvBackward:
    """conv3d's backward under a budget that splits a sample's columns into
    one-slab or two-row chunks, and its input channels' tap products into
    blocks, against the whole-sample im2col backward: the input gradient
    bitwise, the weight gradient (summed over position chunks) within 1e-12
    relative."""

    @pytest.mark.parametrize("budget", ["slabs", "rows"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("kernel,stride,padding,dims", CHUNKED_CONVS)
    def test_matches_whole_sample_backward(
        self, monkeypatch, kernel, stride, padding, dims, batch, budget
    ):
        rng = np.random.default_rng(23)
        x0 = rng.normal(size=(batch, 3, *dims))
        w0 = rng.normal(size=(4, 3, *kernel))
        geometry = zip(dims, kernel, stride, padding)
        out_dims = tuple((d + 2 * p - k) // s + 1 for d, k, s, p in geometry)
        row_bytes = 3 * int(np.prod(kernel)) * out_dims[2] * 8
        per_chunk = out_dims[1] * row_bytes if budget == "slabs" else 2 * row_bytes
        monkeypatch.setattr(tensor, "_COLS_BUDGET", per_chunk)
        assert len(tensor._position_chunks(out_dims, row_bytes, 1)) > 1
        # the three input channels' tap products do not fit in one block
        assert 3 * int(np.prod(kernel)) * int(np.prod(out_dims)) * 8 > per_chunk
        x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        out = conv3d(x, w, stride, padding)
        gy = np.random.default_rng(24).normal(size=out.shape)
        (out * Tensor(gy)).sum().backward()
        gx, gw = conv3d_backward_full(x0, w0, gy, stride, padding)
        assert np.array_equal(bits(x.grad), bits(gx))
        assert scaled_error(w.grad, gw) < 1e-12


class TestConvBackwardMemory:
    def test_static4_backward_peak_at_128(self):
        """conv3d's backward at static4's shape for 128x128 frames, batch 2
        (288 channels in, 256 out, 2x32x32 positions), where one sample's
        columns take 127 MB: the weight gradient forms them in position
        chunks and the input gradient scatters its tap products in channel
        blocks, so the backward allocates under 80 MB at peak (54 MB).
        Whole-sample columns and tap products go past it (169 MB)."""
        rng = np.random.default_rng(25)
        kernel, stride, padding = _STATIC_GEOM[3]
        x = Tensor(rng.normal(size=(2, 288, 2, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(256, 288, *kernel)) / 100.0, requires_grad=True)
        b = Tensor(np.zeros(256), requires_grad=True)
        out = conv3d(x, w, stride, padding, b, True)
        loss = (out * Tensor(rng.normal(size=out.shape))).sum()
        del out
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < 80 * 2**20
