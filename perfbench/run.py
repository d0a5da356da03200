"""Benchmark of flowvad's three user-facing costs.

    python3 perfbench/run.py --workload itae_train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single workload runs in this process. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (environment, output digest, tail percentile, step accounting).
Both are also written under perfbench/out/.

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every end-to-end metric with its unit and the tracing
overhead.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("itae_train", "nf_train", "score")

# End-to-end metric: (unit, name of the same figure per workload in the bench's note).
END_TO_END = {
    "setup_s": ("s", {}),
    "op_s": ("s", {"itae_train": "itae_step_s", "nf_train": "nf_step_s"}),
    "op_tail_s": ("s", {"itae_train": "itae_step_tail_s", "nf_train": "nf_step_tail_s"}),
    "throughput_per_s": ("1/s", {"score": "score_fps"}),
    "peak_rss_mb": ("MB", {}),
}


def tail(values):
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count). With fewer than eleven
    samples no such percentile exists; the maximum is returned as the
    100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(outcome):
    import workloads

    value, percentile, count = tail(outcome.op_s)
    metrics = {
        "setup_s": statistics.median(outcome.setup_s),
        "op_s": statistics.median(outcome.op_s),
        "op_tail_s": value,
        "throughput_per_s": outcome.items / sum(outcome.op_s),
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    return metrics, {"percentile": percentile, "samples": count}


def _blas_threads():
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "seed": seed,
    }


def run_one(name, seed, seconds, trace, geom=None):
    """Run one workload in this process; returns (detail, result, tracer or None)."""
    import tracing
    import workloads

    geom = geom or workloads.ACCEPTANCE
    tracer = tracing.Tracer() if trace else None
    work = OUT / f"work-{os.getpid()}"
    try:
        if tracer:
            with tracing.instrumented(tracer):
                outcome = workloads.WORKLOADS[name](geom, seed, seconds, str(work), tracer)
        else:
            outcome = workloads.WORKLOADS[name](geom, seed, seconds, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, tail_info = end_to_end(outcome)
    detail = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "geometry": dataclasses.asdict(geom),
        "end_to_end": e2e,
        "tail": tail_info,
        "ops": len(outcome.op_s),
        "op_runs_s": outcome.op_s,
        "setup_runs_s": outcome.setup_s,
        "failed_share": outcome.failed / outcome.attempted,
        # ru_maxrss is a high-water mark: equal values mean set-up set the peak
        "peak_rss_mb_after": {"setup": outcome.setup_rss_mb, "loop": e2e["peak_rss_mb"]},
        "digest": outcome.digest,
    }
    if tracer:
        metrics = tracer.per_layer(len(outcome.op_s), len(outcome.setup_s))
        detail["accounting"] = {
            span: tracer.accounting(span)
            for span in ("train.itae.step", "train.nf.step", "pipeline.score_video")
        }
        detail["spans"] = len(tracer.spans)
    else:
        metrics = {key: {"value": value, "unit": END_TO_END[key][0]} for key, value in e2e.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    return detail, result, tracer


def _write(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def summary(seed, seconds):
    """Every workload untraced and traced, each in a fresh process."""
    rows = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            rows[name, trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
    report = {}
    print(f"{'workload':<11} {'metric':<18} {'alias':<17} {'unit':<5} "
          f"{'untraced':>11} {'traced':>11} {'overhead':>11}")
    for name in WORKLOADS:
        (plain, result), (traced, traced_result) = rows[name, 0], rows[name, 1]
        entry = {"correct": result["correct"] and traced_result["correct"],
                 "failed_share": plain["failed_share"], "tail": plain["tail"], "metrics": {}}
        for metric, (unit, aliases) in END_TO_END.items():
            a, b = plain["end_to_end"][metric], traced["end_to_end"][metric]
            alias = aliases.get(name, "")
            entry["metrics"][metric] = {"value": a, "unit": unit, "alias": alias or None,
                                        "traced": b, "overhead": b - a}
            print(f"{name:<11} {metric:<18} {alias:<17} {unit:<5} "
                  f"{a:>11.4f} {b:>11.4f} {b - a:>+11.4f}")
        print(f"{name:<11} {'failed_share':<18} {'':<17} {'':<5} "
              f"{plain['failed_share']:>11.4f}   correct={entry['correct']}  "
              f"tail=p{plain['tail']['percentile']:.1f} of {plain['tail']['samples']}")
        report[name] = entry
    _write(f"summary-seed{seed}.json", report)
    print(json.dumps(report))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowvad" / "__init__.py").is_file():
        print(f"error: flowvad sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args.seed, args.seconds)

    # BLAS threads are fixed before numpy loads, never above the usable cores.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        requested = os.environ.get(var, "")
        threads = int(requested) if requested.isdigit() and int(requested) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))
    sys.path.insert(0, str(SRC))
    import flowvad

    if Path(flowvad.__file__).resolve().parent != SRC / "flowvad":
        print(f"error: imported flowvad from {flowvad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    detail, result, tracer = run_one(args.workload, args.seed, args.seconds, args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write(f"{stem}.json", {"detail": detail, "result": result})
    if tracer:
        _write(f"{stem}-spans.json", {"columns": ["name", "start", "end", "parent"],
                                      "spans": tracer.dump()})
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
