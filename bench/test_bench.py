"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They check the metric names against ``BENCHMARK.json``, the self-time
arithmetic and the compare verdicts on synthetic data, and run every
workload end to end at tiny sizes, traced and untraced.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
import spans

workloads = run.import_workloads()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = run.spec()
WORKLOADS = run.workload_names()
END_TO_END = run.units("end_to_end")
PER_LAYER = run.units("per_layer")

TINY = {
    "mc_fixed": {"trials": 8, "shard_size": 4, "check_trials": 2},
    "mc_instances": {"trials": 3, "shard_size": 2, "check_trials": 2},
    "tune_audit": {"budget": 8, "rungs": 2, "audit_trials": 1, "ms": (None, 6), "w_factors": (1.0,)},
    "serve_stream": {"steps": 300},
}


def test_benchmark_json_names_and_bounds():
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(PER_LAYER) <= 128
    cells = {f"cell.{cell}.trials_per_s" for cell in workloads.sweep_cells()}
    assert cells <= set(PER_LAYER)


def _span(name, start, end, sid, parent, fields=None):
    return spans.Span(name, start, end, sid, parent, "w/repeat0/cell", fields)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("run_sweep", 0.0, 10.0, 1, 0),
        _span("lease.claim", 1.0, 2.0, 2, 1),
        _span("run_chunk", 2.0, 7.0, 3, 1),
        _span("lockstep.run", 3.0, 6.0, 4, 3, {"trials": 4, "steps": 40}),
        _span("store.finalize", 7.0, 9.0, 5, 1),
        _span("store.resume", 7.5, 8.0, 6, 5),
    ]
    st = spans.self_times(tree)
    assert st["run_sweep"] == [pytest.approx(2.0), 1]
    assert st["run_chunk"] == [pytest.approx(2.0), 1]
    assert st["lockstep.run"] == [pytest.approx(3.0), 1]
    assert st["store.finalize"] == [pytest.approx(1.5), 1]
    assert sum(v[0] for v in st.values()) == pytest.approx(10.0)
    assert spans.shard_seconds(tree) == [pytest.approx(8.0)]
    metrics = spans.layer_metrics(tree, wall=12.5)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.2)
    assert metrics["sim.steps"] == 40
    assert metrics["sim.steps_per_s"] == pytest.approx(40 / 3.0)
    assert metrics["lockstep.width_mean"] == 4
    assert metrics["per_trial.share"] == 0.0
    assert set(metrics) < set(PER_LAYER)


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "lower", "better"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "lower", "worse"),
        ([10, 10.1, 9.9, 10, 10.05], [10.2, 10.1, 10, 10.3, 10.1], "lower", "within bound"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "higher", "better"),
        ([10, 14, 7, 12, 9], [10, 11, 9, 12, 10], "lower", "unresolved"),
        ([10, 14, 7, 12, 9], [5, 5.5, 4, 6, 5], "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better) == expected


def _report(values, failed=0, cell=1.0):
    runs = [
        {"correct": not failed, "attempted": 10, "failed": failed,
         "metrics": {"work_per_s": {"value": v, "unit": "1/s"}},
         "cells": {"deep_random": cell * v}}
        for v in values
    ]
    return {"workloads": {"mc_fixed": {"runs": runs, "traced": None}}}


def test_compare_flags_regressions_and_failures():
    spec = {"end_to_end": [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}
    base = _report([1.0, 1.01, 0.99])
    assert not compare.compare(base, _report([1.02, 1.0, 1.01]), spec)[1]
    assert compare.compare(base, _report([0.7, 0.71, 0.69]), spec)[1]
    assert compare.compare(base, _report([1.0, 1.01, 0.99], failed=1), spec)[1]
    # 15% slower end to end is within the 20% bound, but one cell 15%
    # slower is past the per-cell bound
    rows, regressed = compare.compare(base, _report([0.85, 0.86, 0.84]), spec)
    work, cell = (next(r for r in rows if key in r) for key in ("work_per_s", "cell.deep_random"))
    assert work.endswith("within bound") and cell.endswith("worse") and regressed
    assert "cell.deep_random.trials_per_s" in compare.summarize(base)


def _bound_originals():
    return [(owner, attr, original)
            for _, _, places, original in spans.bindings()
            for owner, attr in places]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_smoke_traced_and_untraced(name):
    before = _bound_originals()
    traced = run.measure(name, 0, 0, True, sizes=TINY[name], launches=1, min_repeats=1)
    assert all(spans._binding(owner, attr) is value for owner, attr, value in before)
    assert traced["correct"] and traced["failed"] == 0
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(layers) == set(PER_LAYER)
    assert layers["trace.unattributed_share"] <= 0.15
    assert layers["trace.overhead_ratio"] > 0
    assert (run.OUT / f"trace-{name}.jsonl").stat().st_size > 0
    sweeps = name.startswith("mc_")
    assert set(traced["cells"]) == (set(workloads.sweep_cells()) if sweeps else set())

    plain = run.measure(name, 0, 0, False, sizes=TINY[name], launches=1, min_repeats=1)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == set(END_TO_END)
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert all(rate > 0 for rate in plain["cells"].values())
    assert plain["host_slowness"] > 0


def test_times_are_scaled_by_the_host_probe(monkeypatch):
    timings = {"import_numpy_s": 0.1, "import_repro_s": 0.2}
    monkeypatch.setattr(run, "probe_host", lambda: 2 * run.REFERENCE_PROBE_S)
    monkeypatch.setattr(run, "cold_launch", lambda name, seed: (1.0, timings))
    result = run.measure(
        "serve_stream", 0, 0, False, sizes=TINY["serve_stream"], launches=3, min_repeats=1
    )
    assert result["host_slowness"] == 2.0
    assert result["metrics"]["setup_s"]["value"] == 0.5


def test_sweep_cross_check_reruns_trials():
    workload = workloads.make("mc_fixed", **TINY["mc_fixed"])
    manifests = workload.build(3)
    run.OUT.mkdir(parents=True, exist_ok=True)
    workdir = run.OUT / "test-cross-check"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        batch = workload.run(manifests, workdir)
        assert workload.cross_check(manifests, batch) == (10, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_repeat_digest_mismatch_fails_the_run(monkeypatch):
    digests = iter(range(100))
    monkeypatch.setattr(
        workloads.ServeWorkload, "digest", lambda self, batch: str(next(digests))
    )
    result = run.measure(
        "serve_stream", 0, 0, False, sizes=TINY["serve_stream"], launches=1, min_repeats=2
    )
    assert not result["correct"] and result["failed"] > 0


def test_untraced_run_never_imports_the_tracer():
    code = (
        "import sys; sys.path.insert(0, 'bench'); import run; "
        "r = run.measure('serve_stream', 0, 0, False, sizes={'steps': 50}, launches=1, min_repeats=1); "
        "assert r['correct'] and 'spans' not in sys.modules, r"
    )
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_fixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
