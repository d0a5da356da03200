"""Spans around flowvad's public callables, installed from outside the package.

A traced run wraps the callables listed in :func:`instrumented` and records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory and are reduced to the per-layer metrics of
:data:`PER_LAYER` when the run ends. End-to-end numbers never come from a
traced run.

Backward time of an autoencoder layer is taken by wrapping the backward
closure of every graph node its call created, so it is charged to the layer
even though it runs later, inside ``Tensor.backward``.
"""

import contextlib
import functools
import importlib
import time
import tracemalloc
import weakref

AE_LAYERS = tuple(
    [f"{path}{i}" for path in ("static", "dynamic", "lateral") for i in range(1, 5)]
    + ["fuse"]
    + [f"decode{i}" for i in range(1, 5)]
)

# Spans timed as plain calls: (flowvad module, class or None, attribute, span name).
_CALL_SPANS = (
    ("autoencoder", "TwoPathAutoencoder", "encode", "autoencoder.encode"),
    ("autoencoder", "TwoPathAutoencoder", "decode", "autoencoder.decode"),
    ("train", None, "recon_loss", "losses.recon_loss"),
    ("optim", "Adam", "step", "optim.adam_step"),
    ("flow", "ActNorm", "forward", "flow.actnorm.fwd"),
    ("flow", "InvertibleConv1x1", "forward", "flow.mix.fwd"),
    ("flow", "AffineCoupling", "forward", "flow.coupling.fwd"),
    ("flow", "Squeeze", "forward", "flow.squeeze.fwd"),
    ("flow", None, "gaussian_log_density", "flow.prior"),
    ("flow", "FlowStack", "nll_of", "flow.nll_of"),
    ("pipeline", None, "pool_features", "features.pool"),
    ("pipeline", None, "patch_max_error", "scoring.patch_max_error"),
    ("pipeline", None, "aggregate_windows", "scoring.aggregate_windows"),
    ("pipeline", None, "score_video", "pipeline.score_video"),
    ("pipeline", None, "collect_flow_samples", "pipeline.collect_flow_samples"),
    ("clips", None, "load_video", "clips.load_video"),
    ("checkpoint", None, "load_checkpoint", "checkpoint.load"),
)

# Step spans opened by the workloads' step clocks, and the score call whose
# children are its layers; their self time is reported.
_SELF_SPANS = {
    "train.itae.self_s": "train.itae.step",
    "train.nf.self_s": "train.nf.step",
    "pipeline.score_video.self_s": "pipeline.score_video",
}
# Reported per set-up; every other time is per operation of the timed loop.
_SETUP_SPANS = ("pipeline.collect_flow_samples", "checkpoint.load")
OVERHEAD_SPAN = "trace.overhead"


def _catalog():
    rows = []
    for layer in AE_LAYERS:
        rows.append((f"autoencoder.{layer}.fwd_s", "s"))
        rows.append((f"autoencoder.{layer}.bwd_s", "s"))
        rows.append((f"autoencoder.{layer}.fwd_peak_mb", "MB"))
    rows += [(f"{span}_s", "s") for *_, span in _CALL_SPANS]
    rows += [("tensor.backward_s", "s"), ("flow.forward_s", "s")]
    rows += [(name, "s") for name in _SELF_SPANS]
    rows += [("flow.train_graph_nodes", "count"), ("flow.nll_of_graph_nodes", "count")]
    return rows


# (metric name, unit) of every per-layer metric a traced run reports.
PER_LAYER = tuple(_catalog())


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.samples = []  # (metric name, parent index, value)
        self._open = []

    def open(self, name, start=None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        now = time.perf_counter() if start is None else start
        self.spans.append([name, now, None, parent])
        self._open.append(index)
        return index

    def close(self, index, end=None):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter() if end is None else end

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def leaf(self, name, start, end):
        """Record a closed span under the currently open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])

    def sample(self, name, value):
        parent = self._open[-1] if self._open else -1
        self.samples.append((name, parent, value))

    def top_name(self):
        return self.spans[self._open[-1]][0] if self._open else None

    # ---------------------------------------------------------- reduction

    def _roots(self):
        roots = []
        for name, _, _, parent in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        return roots

    def self_times(self):
        """Duration of each span minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def per_layer(self, loop_ops, setups, loop="bench.loop", setup="bench.setup"):
        """Reduce the spans to PER_LAYER: loop times per operation, set-up
        times per set-up, peaks and counts as their maximum in the loop."""
        roots = self._roots()
        selfs = self.self_times()
        totals = {}
        self_totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            key = (roots[i], name)
            totals[key] = totals.get(key, 0.0) + end - start
            self_totals[key] = self_totals.get(key, 0.0) + selfs[i]
        maxima = {}
        for name, parent, value in self.samples:
            if parent >= 0 and roots[parent] == loop:
                maxima[name] = max(maxima.get(name, 0), value)
        out = {}
        for metric, unit in PER_LAYER:
            if metric in _SELF_SPANS:
                value = self_totals.get((loop, _SELF_SPANS[metric]), 0.0) / loop_ops
            elif unit != "s":
                value = maxima.get(metric, 0)
            elif metric[:-2] in _SETUP_SPANS:
                value = totals.get((setup, metric[:-2]), 0.0) / setups
            else:
                value = totals.get((loop, metric[:-2]), 0.0) / loop_ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def accounting(self, parent_name, loop="bench.loop"):
        """Mean duration of the loop's `parent_name` spans, split into their
        direct children by name plus self time."""
        roots = self._roots()
        parents = {
            i for i, (name, *_) in enumerate(self.spans)
            if name == parent_name and roots[i] == loop
        }
        if not parents:
            return None
        children = {}
        for name, start, end, parent in self.spans:
            if parent in parents:
                children[name] = children.get(name, 0.0) + end - start
        selfs = self.self_times()
        n = len(parents)
        return {
            "spans": n,
            "mean_s": sum(self.spans[i][2] - self.spans[i][1] for i in parents) / n,
            "children_s": {k: v / n for k, v in sorted(children.items())},
            "self_s": sum(selfs[i] for i in parents) / n,
        }

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]


def graph_nodes(t):
    """Number of tensors reachable from `t` through recorded parents."""
    seen = set()
    todo = [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _time_backward(tracer, out, stop, name):
    """Charge the backward closures of the nodes between `out` and `stop`."""

    def timed(closure):
        def run():
            start = time.perf_counter()
            closure()
            tracer.leaf(name, start, time.perf_counter())

        return run

    seen = {id(stop)}
    todo = [out]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            node._backward = timed(node._backward)
            todo.extend(node._parents)


def _layer_call(tracer, names, fn):
    @functools.wraps(fn)
    def wrapper(layer, x):
        name = names.get(layer)
        if name is None:
            return fn(layer, x)
        tracemalloc.start()
        try:
            with tracer.span(f"autoencoder.{name}.fwd"):
                out = fn(layer, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracer.sample(f"autoencoder.{name}.fwd_peak_mb", peak / 2**20)
        if out.requires_grad:
            with tracer.span(OVERHEAD_SPAN):
                _time_backward(tracer, out, x, f"autoencoder.{name}.bwd")
        return out

    return wrapper


def _naming_init(names, fn):
    @functools.wraps(fn)
    def wrapper(model, *args, **kwargs):
        fn(model, *args, **kwargs)
        groups = {
            "static": model.static_convs,
            "dynamic": model.dynamic_convs,
            "lateral": model.laterals,
            "decode": model.decoder,
        }
        for prefix, layers in groups.items():
            for i, layer in enumerate(layers):
                names[layer] = f"{prefix}{i + 1}"
        if model.fuse_proj is not None:
            names[model.fuse_proj] = "fuse"

    return wrapper


def _backward(tracer, fn):
    @functools.wraps(fn)
    def wrapper(loss):
        if tracer.top_name() == "train.nf.step":
            with tracer.span(OVERHEAD_SPAN):
                tracer.sample("flow.train_graph_nodes", graph_nodes(loss))
        with tracer.span("tensor.backward"):
            return fn(loss)

    return wrapper


def _flow_forward(tracer, fn):
    @functools.wraps(fn)
    def wrapper(stack, *args, **kwargs):
        in_nll_of = tracer.top_name() == "flow.nll_of"
        with tracer.span("flow.forward"):
            result = fn(stack, *args, **kwargs)
        if in_nll_of:
            with tracer.span(OVERHEAD_SPAN):
                tracer.sample("flow.nll_of_graph_nodes", graph_nodes(result.nll))
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer):
    """Install every span wrapper; the originals come back on exit."""
    from flowvad.autoencoder import Conv3dLayer, TwoPathAutoencoder
    from flowvad.flow import FlowStack
    from flowvad.tensor import Tensor

    names = weakref.WeakKeyDictionary()
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            patched(TwoPathAutoencoder, "__init__", lambda fn: _naming_init(names, fn))
        )
        stack.enter_context(
            patched(Conv3dLayer, "__call__", lambda fn: _layer_call(tracer, names, fn))
        )
        stack.enter_context(patched(Tensor, "backward", lambda fn: _backward(tracer, fn)))
        stack.enter_context(patched(FlowStack, "forward", lambda fn: _flow_forward(tracer, fn)))
        for module, cls, attr, span in _CALL_SPANS:
            owner = importlib.import_module(f"flowvad.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            stack.enter_context(
                patched(owner, attr, lambda fn, span=span: _timed(tracer, span, fn))
            )
        yield
