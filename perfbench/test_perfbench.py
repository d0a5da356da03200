"""Smoke test of the benchmark itself at a tiny geometry.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _units(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    detail, result, _ = run.run_one(name, 7, 0.5, 0, workloads.TINY)
    assert _units(result) == _declared("end_to_end")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["environment"]["nproc"] >= 1 and detail["environment"]["blas_threads"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_children_fit_their_step(name):
    _, result, tracer = run.run_one(name, 7, 0.5, 1, workloads.TINY)
    assert _units(result) == _declared("per_layer")
    assert result["correct"]
    steps = {"itae_train": "train.itae.step", "nf_train": "train.nf.step",
             "score": "pipeline.score_video"}[name]
    covered = {}
    for _, start, end, parent in tracer.spans:
        covered[parent] = covered.get(parent, 0.0) + end - start
    durations = [(i, end - start) for i, (span, start, end, _) in enumerate(tracer.spans)
                 if span == steps]
    assert durations
    for i, duration in durations:
        assert covered.get(i, 0.0) <= duration + 1e-9


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_per_layer_catalog_has_unique_names():
    names = [name for name, _ in tracing.PER_LAYER]
    assert len(names) == len(set(names))


def test_operation_counts_follow_seconds_not_timing():
    geom = workloads.ACCEPTANCE
    assert geom.op_count(geom.itae_steps_per_s, 30, 3) == 15
    assert geom.op_count(geom.nf_steps_per_s / 2, 30, 3) == 375
    assert geom.op_count(geom.score_videos_per_s, 30, 1) == 2
    assert geom.op_count(geom.score_videos_per_s, 1, 1) == 1
