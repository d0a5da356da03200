"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Each test certifies a property end users rely on: exact invertibility of the
density model, conservation of probability mass, gradient correctness of
every differentiable op, the published layer geometry, metric math against
brute-force oracles, and the full train/score/evaluate pipeline on synthetic
scenes with known anomalies.
"""

import contextlib
import io
import json
import math
import sys
import time

import numpy as np
import pytest

from flowvad.autoencoder import AutoencoderConfig, TwoPathAutoencoder
from flowvad.checkpoint import checkpoint_hash
from flowvad.cli import main
from flowvad.flow import (
    ActNorm,
    AffineCoupling,
    FlowConfig,
    FlowStack,
    InvertibleConv1x1,
    Squeeze,
)
from flowvad.losses import recon_loss
from flowvad.scoring import roc_auc_eer
from flowvad.tensor import Tensor
from flowvad.train import TrainConfig, train_flow

from graph_ops import (
    amax,
    broadcast_to,
    concat,
    conv3d,
    conv_transpose3d,
    exp,
    leaky_relu,
    log,
    matmul,
    neg,
    relu,
    tanh,
)
from model_oracles import layer_shapes, named_grads
from numeric import max_relative_error, numerical_gradient, numerical_jacobian


_CAPTURE = {"manager": None}


@pytest.fixture(autouse=True)
def _stash_capture_manager(request):
    _CAPTURE["manager"] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(text):
    manager = _CAPTURE["manager"]
    ctx = (
        manager.global_and_fixture_disabled()
        if manager is not None
        else contextlib.nullcontext()
    )
    with ctx:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


@contextlib.contextmanager
def verdict(name):
    """Print one pass/fail line for the property being certified."""
    try:
        yield
    except BaseException:
        _emit(f"acceptance[{name}]: FAIL")
        raise
    _emit(f"acceptance[{name}]: PASS")


def perturb(stack, rng, scale=0.3):
    for name, p in stack.named_parameters().items():
        if name.endswith(("w3", "b3")):
            p += rng.normal(0, scale, p.shape)
        elif name.endswith(("logs", "bias", "log_diag")):
            p += rng.normal(0, 0.1 * scale, p.shape)


def layer_jacobian_logdet(forward, x):
    """log |det J| of a batch-1 layer forward, assembled numerically."""

    def flat(arr):
        return forward(arr.reshape(x.shape))[0].reshape(-1)

    jac = numerical_jacobian(flat, x.reshape(-1).copy())
    sign, logabs = np.linalg.slogdet(jac)
    assert sign != 0
    return logabs


class TestFlowExactness:
    def test_invertibility_and_logdet(self):
        start = time.perf_counter()
        with verdict("flow invertibility and exact logdet"):
            rng = np.random.default_rng(11)
            x8 = rng.normal(size=(1, 2, 2, 2))

            actnorm = ActNorm(2)
            actnorm.initialize(rng.normal(1.5, 2.0, size=(4, 2, 3, 3)))
            conv = InvertibleConv1x1(2, rng)
            coupling = AffineCoupling(2, 8, rng)
            coupling.params["w3"] += rng.normal(0, 0.3, coupling.params["w3"].shape)
            coupling.params["b3"] += rng.normal(0, 0.3, coupling.params["b3"].shape)
            squeeze = Squeeze()

            for name, layer in [
                ("actnorm", actnorm),
                ("mix", conv),
                ("coupling", coupling),
                ("squeeze", squeeze),
            ]:
                y, logdet, _ = layer.forward(x8.copy())
                back, _ = layer.inverse(y)
                assert np.max(np.abs(back - x8)) < 1e-6, name
                analytic = float(np.broadcast_to(logdet, (1,))[0])
                numeric = layer_jacobian_logdet(layer.forward, x8)
                assert abs(analytic - numeric) < 1e-6, name

            stack = FlowStack(FlowConfig(channels=3, levels=2, steps=4, hidden=8), rng)
            perturb(stack, rng)
            xs = rng.normal(size=(2, 3, 4, 4))
            result = stack.forward(Tensor(xs))
            back = stack.inverse(result.z_parts)
            assert np.max(np.abs(back - xs)) < 1e-6

            flat_stack = FlowStack(
                FlowConfig(channels=8, levels=2, steps=4, hidden=8, squeeze=1), rng
            )
            perturb(flat_stack, rng)
            xv = rng.normal(size=(1, 8, 1, 1))

            def flat(arr):
                res = flat_stack.forward(Tensor(arr.reshape(1, 8, 1, 1)))
                return np.concatenate([z.reshape(-1) for z in res.z_parts])

            jac = numerical_jacobian(flat, xv.reshape(-1).copy())
            _, logabs = np.linalg.slogdet(jac)
            analytic = float(flat_stack.forward(Tensor(xv)).logdet[0])
            assert abs(analytic - logabs) < 1e-6
        assert time.perf_counter() - start < 30.0


class TestDensityNormalization:
    def _integral(self, stack):
        axis = np.linspace(-6.0, 6.0, 161)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        points = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
        density = np.empty(points.shape[0])
        for lo in range(0, points.shape[0], 4096):
            chunk = points[lo : lo + 4096].reshape(-1, 2, 1, 1)
            density[lo : lo + chunk.shape[0]] = np.exp(-stack.nll_of(chunk))
        grid = density.reshape(axis.size, axis.size)
        return float(np.trapezoid(np.trapezoid(grid, axis, axis=1), axis))

    def test_probability_mass_is_conserved(self):
        start = time.perf_counter()
        with verdict("density integrates to one before and after training"):
            rng = np.random.default_rng(5)
            stack = FlowStack(
                FlowConfig(channels=2, levels=1, steps=4, hidden=16, squeeze=1), rng
            )
            before = self._integral(stack)
            assert abs(before - 1.0) <= 0.02

            cov_root = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
            samples = (rng.normal(size=(768, 2)) @ cov_root.T).reshape(768, 2, 1, 1)
            curve = train_flow(
                stack, samples, TrainConfig(steps=150, batch_size=64, lr=5e-3, seed=1)
            )
            assert curve[-1]["nll"] < curve[0]["nll"]

            after = self._integral(stack)
            assert abs(after - 1.0) <= 0.02
        assert time.perf_counter() - start < 60.0


def _op_registry(rng):
    """(name, input arrays, build) triples covering every differentiable op."""
    a34 = rng.normal(size=(3, 4))
    b34 = rng.normal(size=(3, 4))
    away = rng.normal(size=(3, 4))
    away += 0.25 * np.sign(away)  # keep clear of kinks at zero
    pos = rng.uniform(0.5, 3.0, size=(3, 4))
    denom = rng.uniform(0.5, 1.5, size=(3, 4)) * np.where(rng.random((3, 4)) < 0.5, -1, 1)
    c46 = rng.normal(size=(4, 6))
    c234 = rng.normal(size=(2, 3, 4))
    w_conv = rng.normal(size=(3, 2, 3, 3, 3)) * 0.4
    x_conv = rng.normal(size=(1, 2, 3, 6, 6))
    w_up = rng.normal(size=(3, 2, 3, 3, 3)) * 0.4
    x_up = rng.normal(size=(1, 3, 2, 3, 3))
    c_out = rng.normal(size=(1, 3, 3, 3, 3))
    c_up = rng.normal(size=(1, 2, 4, 6, 6))

    return [
        ("add", [a34, b34], lambda a, b: (a + b).sum()),
        ("sub", [a34, b34], lambda a, b: (a - b).sum()),
        ("mul", [a34, b34], lambda a, b: (a * b).sum()),
        ("div", [a34, denom], lambda a, b: (a / b).sum()),
        ("pow", [pos], lambda a: (a**3.0).sum()),
        ("neg", [a34], lambda a: (neg(a) * Tensor(b34)).sum()),
        ("exp", [a34], lambda a: exp(a).sum()),
        ("log", [pos], lambda a: log(a).sum()),
        ("tanh", [a34], lambda a: (tanh(a) * Tensor(b34)).sum()),
        ("sigmoid", [a34], lambda a: (a.sigmoid() * Tensor(b34)).sum()),
        ("relu", [away], lambda a: (relu(a) * Tensor(b34)).sum()),
        ("leaky_relu", [away], lambda a: (leaky_relu(a, 0.2) * Tensor(b34)).sum()),
        ("abs", [away], lambda a: (a.abs() * Tensor(b34)).sum()),
        ("clamp_min", [away], lambda a: (a.clamp_min(0.0) * Tensor(b34)).sum()),
        ("sum_axis", [a34], lambda a: (a.sum(axis=1) * Tensor(b34[:, 0])).sum()),
        ("mean", [a34], lambda a: ((a * Tensor(b34)).mean() * 7.0).sum()),
        ("max_axis", [a34], lambda a: (amax(a, axis=1) * Tensor(b34[:, 0])).sum()),
        ("max_global", [a34], lambda a: amax(a) * 3.0),
        ("reshape", [c234], lambda a: (a.reshape(4, 6) * Tensor(c46)).sum()),
        ("transpose", [c234], lambda a: (a.transpose((1, 0, 2)) * Tensor(c234.transpose(1, 0, 2))).sum()),
        ("slice", [c234], lambda a: (a[:, 1:3] * Tensor(c234[:, 1:3])).sum()),
        ("concat", [a34, b34], lambda a, b: (concat([a, b], axis=1) * Tensor(np.hstack([b34, a34]))).sum()),
        ("broadcast_to", [a34[:, :1]], lambda a: (broadcast_to(a, (3, 4)) * Tensor(b34)).sum()),
        ("batch_broadcast_mul", [a34[:1], b34], lambda a, b: (a * b).sum()),
        ("trailing_broadcast_add", [a34[0], b34], lambda a, b: (a + b).sum()),
        ("matmul", [a34, c46[:4, :2]], lambda a, b: (matmul(a, b) * Tensor(a34[:, :2])).sum()),
        (
            "conv3d",
            [x_conv, w_conv],
            lambda x, w: (
                conv3d(x, w, stride=(1, 2, 2), padding=(1, 1, 1)) * Tensor(c_out)
            ).sum(),
        ),
        (
            "conv_transpose3d",
            [x_up, w_up],
            lambda x, w: (
                conv_transpose3d(
                    x, w, stride=(2, 2, 2), padding=(1, 1, 1), output_padding=(1, 1, 1)
                )
                * Tensor(c_up)
            ).sum(),
        ),
    ]


class TestGradientIntegrity:
    def test_all_ops_and_losses(self):
        start = time.perf_counter()
        with verdict("finite-difference gradients for every op and both losses"):
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                for name, arrays, build in _op_registry(rng):
                    self._check(name, seed, arrays, build)

                target = rng.random((1, 1, 2, 16, 16))
                out0 = rng.random((1, 1, 2, 16, 16)) * 0.8 + 0.1
                self._check(
                    "recon_loss", seed, [out0],
                    lambda out: recon_loss(target, out).total,
                )

                stack = FlowStack(
                    FlowConfig(channels=2, levels=1, steps=2, hidden=6, squeeze=1), rng
                )
                perturb(stack, rng)
                xf = rng.normal(size=(2, 2, 1, 1))
                self._check(
                    "flow_nll", seed, [xf], lambda x: stack.forward(x).nll.mean()
                )
                w3 = stack.named_parameters()["level0.step0.coupling.w3"]
                self._check_param(
                    "flow_nll_wrt_weights", seed, stack, w3, Tensor(xf)
                )
        assert time.perf_counter() - start < 120.0

    @staticmethod
    def _check(name, seed, arrays, build):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        build(*tensors).backward()
        for i in range(len(arrays)):
            def scalar(varied, i=i):
                probe = [Tensor(a) for a in arrays]
                probe[i] = Tensor(varied)
                return float(build(*probe).data)

            want = numerical_gradient(scalar, arrays[i].copy())
            err = max_relative_error(tensors[i].grad, want)
            assert err < 1e-4, f"{name} seed {seed} input {i}: rel err {err:.2e}"

    @staticmethod
    def _check_param(name, seed, stack, param, x):
        for p in stack.parameters():
            p.grad = None
        stack.forward(x).nll.mean().backward()
        grads = named_grads(stack)
        got = next(grads[n] for n, p in stack.named_parameters().items() if p is param).copy()
        base = param.copy()

        def scalar(values):
            param[...] = values.reshape(base.shape)
            out = float(stack.forward(x).nll.mean().data)
            param[...] = base
            return out

        want = numerical_gradient(scalar, base.copy().reshape(-1)).reshape(base.shape)
        err = max_relative_error(got, want)
        assert err < 1e-4, f"{name} seed {seed}: rel err {err:.2e}"


SURVEILLANCE_ROWS = {
    "static1": (96, 4, 128, 128), "dynamic1": (12, 16, 128, 128),
    "static2": (128, 4, 64, 64), "dynamic2": (16, 16, 64, 64),
    "static3": (256, 4, 64, 64), "dynamic3": (32, 16, 64, 64),
    "static4": (256, 4, 64, 64), "dynamic4": (32, 16, 64, 64),
    "decode1": (256, 4, 64, 64), "decode2": (128, 8, 128, 128),
    "decode3": (96, 16, 256, 256), "decode4": (3, 16, 256, 256),
}

DESK_ROWS = {
    "static1": (96, 2, 32, 32), "dynamic1": (12, 8, 32, 32),
    "static2": (128, 2, 16, 16), "dynamic2": (16, 8, 16, 16),
    "static3": (256, 2, 16, 16), "dynamic3": (32, 8, 16, 16),
    "static4": (256, 2, 16, 16), "dynamic4": (32, 8, 16, 16),
    "decode1": (256, 2, 16, 16), "decode2": (128, 4, 32, 32),
    "decode3": (96, 8, 64, 64), "decode4": (1, 8, 64, 64),
}


class TestArchitectureGeometry:
    def test_layer_output_sizes(self):
        with verdict("per-layer output sizes at both scales"):
            big = AutoencoderConfig(in_channels=3, tau=4)
            assert layer_shapes(big, 16, 256, 256) == SURVEILLANCE_ROWS

            desk = AutoencoderConfig(in_channels=1, tau=4)
            assert layer_shapes(desk, 8, 64, 64) == DESK_ROWS

            rng = np.random.default_rng(3)
            model = TwoPathAutoencoder(desk, rng)
            x = rng.random((1, 1, 8, 64, 64))
            seen = {}
            d = x
            dyn = []
            for i, layer in enumerate(model.dynamic_convs):
                d = layer(d).data  # each layer applies its own leaky ReLU
                seen[f"dynamic{i + 1}"] = d.shape[1:]
                dyn.append(d)
            s = x[:, :, :: desk.tau]
            for i, layer in enumerate(model.static_convs):
                s = layer(s).data
                seen[f"static{i + 1}"] = s.shape[1:]
                if i < 3:
                    s = np.concatenate([s, model.laterals[i](dyn[i]).data], axis=1)
            h = model.fuse_proj(np.concatenate([s, model.laterals[3](dyn[3]).data], axis=1)).data
            for i, layer in enumerate(model.decoder):
                h = layer(h).data
                seen[f"decode{i + 1}"] = h.shape[1:]
            assert seen == DESK_ROWS
            assert model.reconstruct(x).shape == x.shape


class TestMetricOracle:
    def test_auc_and_eer_against_brute_force(self):
        with verdict("AUC equals pair counting, EER equalizes error rates"):
            rng = np.random.default_rng(2026)
            for case in range(100):
                n = int(rng.integers(50, 1001))
                while True:
                    labels = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)
                    if 0 < labels.sum() < n:
                        break
                scores = rng.normal(size=n)
                if case % 2:
                    scores = np.round(scores, 1)  # heavy ties

                auc, eer, (fpr, tpr) = roc_auc_eer(scores, labels)

                sp = scores[labels == 1]
                sn = scores[labels == 0]
                wins = (sp[:, None] > sn[None, :]).sum()
                ties = (sp[:, None] == sn[None, :]).sum()
                pair_auc = (wins + 0.5 * ties) / (sp.size * sn.size)
                assert abs(auc - pair_auc) < 1e-9, f"case {case}"

                fnr = 1.0 - tpr
                crossing = None
                for i in range(1, fpr.size):
                    lo = fpr[i - 1] - fnr[i - 1]
                    hi = fpr[i] - fnr[i]
                    if lo <= 0.0 <= hi:
                        alpha = 0.0 if hi == lo else -lo / (hi - lo)
                        crossing = (
                            fpr[i - 1] + alpha * (fpr[i] - fpr[i - 1]),
                            fnr[i - 1] + alpha * (fnr[i] - fnr[i - 1]),
                        )
                        break
                assert crossing is not None, f"case {case}"
                f_star, n_star = crossing
                assert abs(f_star - n_star) < 1e-6, f"case {case}"
                assert abs(eer - f_star) < 1e-6, f"case {case}"


ITAE_STEPS = "60"
NF_STEPS = "4800"
SPEED_AUC_FLOOR = 0.82
SHAPE_AUC_FLOOR = 0.75

PIPELINE_FLAGS = [
    "--clip-len", "8", "--tau", "4", "--clip-stride", "8",
    "--resize-h", "64", "--resize-w", "64",
    "--itae-steps", ITAE_STEPS, "--itae-batch", "2", "--itae-lr", "1e-3",
    "--nf-steps", NF_STEPS, "--nf-batch", "8", "--nf-lr", "5e-4",
    "--flow-levels", "2", "--flow-steps", "4", "--flow-hidden", "32",
    "--score-stride", "4", "--seed", "0",
]

# reconstruction-only ablation: static encoder alone, no density models
ABLATION = ["--dynamic-path", "false",
            "--use-static-flow", "false", "--use-dynamic-flow", "false"]


def _eval_csvs(csv_paths):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["eval", *[str(p) for p in csv_paths]])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train both model variants on 200 normal clips, score both anomaly types."""
    base = tmp_path_factory.mktemp("acceptance_e2e")
    train = base / "train"
    started = time.perf_counter()

    for i in range(5):
        assert main(["gen-synth", "--out-dir", str(train / f"scene{i}"),
                     "--n-frames", "320", "--seed", str(10 + i),
                     "--canvas", "64", "--objects", "3"]) == 0
    tests = [("speed", 20, 0), ("speed", 22, 1), ("shape", 21, 0), ("shape", 23, 1)]
    for mode, seed, j in tests:
        assert main(["gen-synth", "--out-dir", str(base / f"test_{mode}{j}"),
                     "--n-frames", "160", "--seed", str(seed), "--canvas", "64",
                     "--objects", "3", "--anomaly", f"48:112:{mode}"]) == 0

    two = base / "two_path"
    one = base / "one_path"
    assert main(["train-itae", "--data-path", str(train),
                 "--out-dir", str(two), *PIPELINE_FLAGS]) == 0
    hash_before = checkpoint_hash(two / "itae")
    assert main(["train-nf", "--data-path", str(train),
                 "--out-dir", str(two), *PIPELINE_FLAGS]) == 0
    hash_after = checkpoint_hash(two / "itae")

    assert main(["train-itae", "--data-path", str(train),
                 "--out-dir", str(one), *PIPELINE_FLAGS, *ABLATION]) == 0

    for mode, _, j in tests:
        assert main(["score", "--data-path", str(base / f"test_{mode}{j}"),
                     "--out-dir", str(two), *PIPELINE_FLAGS]) == 0
    for j in (0, 1):
        assert main(["score", "--data-path", str(base / f"test_speed{j}"),
                     "--out-dir", str(one), *PIPELINE_FLAGS, *ABLATION]) == 0

    def csvs(variant, mode):
        return [variant / "scores" / f"test_{mode}{j}.csv" for j in (0, 1)]

    metrics = {
        ("two_path", "speed"): _eval_csvs(csvs(two, "speed")),
        ("two_path", "shape"): _eval_csvs(csvs(two, "shape")),
        ("one_path", "speed"): _eval_csvs(csvs(one, "speed")),
    }
    return {
        "elapsed": time.perf_counter() - started,
        "two_path": two,
        "one_path": one,
        "hash_before": hash_before,
        "hash_after": hash_after,
        "metrics": metrics,
    }


@pytest.mark.slow
class TestEndToEnd:
    def test_detects_both_anomaly_types(self, pipeline):
        with verdict("synthetic end-to-end anomaly separation"):
            metrics = pipeline["metrics"]
            speed_auc = metrics[("two_path", "speed")]["auc"]
            shape_auc = metrics[("two_path", "shape")]["auc"]
            assert speed_auc >= SPEED_AUC_FLOOR, f"motion-anomaly AUC {speed_auc:.4f}"
            assert shape_auc >= SHAPE_AUC_FLOOR, f"appearance-anomaly AUC {shape_auc:.4f}"
            ablation_auc = metrics[("one_path", "speed")]["auc"]
            assert speed_auc > ablation_auc, (
                f"two-path fused score with flows {speed_auc:.4f} "
                f"vs one-path recon-only {ablation_auc:.4f}"
            )
            assert pipeline["elapsed"] < 900.0

    def test_features_frozen_during_density_training(self, pipeline):
        with verdict("autoencoder checkpoint untouched by density training"):
            assert pipeline["hash_before"] == pipeline["hash_after"]

    def test_lambda_sweep_reports_full_grid(self, pipeline, tmp_path):
        with verdict("six-point lambda sweep over the scored corpus"):
            csvs = [
                str(pipeline["two_path"] / "scores" / f"test_{mode}{j}.csv")
                for mode in ("speed", "shape")
                for j in (0, 1)
            ]
            out = tmp_path / "sweep.csv"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["sweep-lambda", *csvs, "--out", str(out)])
            assert rc == 0
            lines = [l for l in buf.getvalue().splitlines() if l.startswith("lambda ")]
            lams = [float(l.split()[1].rstrip(":")) for l in lines]
            assert lams == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
            for line in lines:
                auc = float(line.split("auc")[1].split()[0])
                assert 0.0 <= auc <= 1.0 and math.isfinite(auc)
            table = out.read_text().splitlines()
            assert table[0] == "lambda,auc,eer"
            assert len(table) == 7
