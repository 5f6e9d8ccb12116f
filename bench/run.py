#!/usr/bin/env python3
"""The repo benchmark: four closed-loop workloads through repro's public API.

Run from the repository root::

    python3 bench/run.py --workload mc_fixed --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0 --trace 1 --out bench/out/a.json

With ``--workload`` one workload is measured in this process.  The run
builds the inputs from ``--seed``, runs one untimed warm-up batch, then
timed batches until ``--seconds`` have passed (at least three), checking
every output.  Before each timed batch it times one cold launch for
``setup_s``.  Every such pair sits between two :func:`probe_host` calls,
and its times are scaled to the reference host's speed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1`` (which adds one traced batch
after the timed ones).  The line before it holds ``cells``, each sweep
cell's median trials per second over the timed batches, and
``host_slowness``, the median of the probes against the reference.  The
exit code is 0 only when every check passed.

Without ``--workload`` every workload runs :data:`RUNS` times,
round-robin, each run in its own subprocess; with ``--trace 1`` each
workload then gets one traced run.  The runs are written as a report for
``bench/compare.py`` and summarised as median and quartiles.

The benchmark reads and writes only inside the checkout: sources from
``src/``, scratch stores and traces under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Cold launches timed per run, at least; ``setup_s`` is their median.
SETUP_LAUNCHES = 7
#: Timed batches per run, at least, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Runs per workload in all-workload mode: the ten pairs a comparison needs.
RUNS = 10

#: Iterations of :func:`probe_host`'s loop.
PROBE_ITERATIONS = 600_000
#: :func:`probe_host` on the reference host of ``bench/README.md``.  The
#: end-to-end times are scaled by ``probe / REFERENCE_PROBE_S`` so that
#: they read as on that host at that speed.
REFERENCE_PROBE_S = 0.085

#: What a run that crashed or printed nothing reports.
FAILED = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def spec() -> dict:
    """The benchmark's definition: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list:
    return [w["name"] for w in spec()["workloads"]]


def units(section: str) -> dict:
    """``{metric name: unit}`` of ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec()[section]}


class SourcesMissing(RuntimeError):
    pass


def import_workloads():
    """Import the workloads, with repro from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourcesMissing(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    import workloads

    location = pathlib.Path(repro.__file__).resolve()
    if SRC not in location.parents:
        raise SourcesMissing(f"repro was imported from {location}, not {SRC}")
    return workloads


def setup_probe(name: str, seed: int) -> None:
    """Child side of a cold launch: import, build the inputs, report."""
    start = perf_counter()
    import numpy  # noqa: F401

    numpy_done = perf_counter()
    workloads = import_workloads()
    repro_done = perf_counter()
    workloads.make(name).build(seed)
    timings = {"import_numpy_s": numpy_done - start, "import_repro_s": repro_done - numpy_done}
    print(json.dumps(timings))


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed.

    The loop calls no repro code, so no change to the program moves it.
    """
    start = perf_counter()
    counts = {}
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        counts[key] = counts.get(key, 0) + (i * 7) % 13
    return perf_counter() - start


def cold_launch(name: str, seed: int):
    """Seconds from starting an interpreter to inputs built and exit."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only"]
    argv += ["--workload", name, "--seed", str(seed)]
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = perf_counter() - start
    return wall, json.loads(done.stdout.splitlines()[-1])


def pinned_digest(name: str, seed: int):
    """The output digest pinned for this workload and seed, if any."""
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins.get(name, {}).get(str(seed))


def _percentile_ms(values, pct: int) -> float:
    if len(values) < 2:
        return 1000.0 * values[0] if values else 0.0
    return 1000.0 * statistics.quantiles(values, n=100)[pct - 1]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    launches: int = SETUP_LAUNCHES,
    min_repeats: int = MIN_REPEATS,
) -> dict:
    """Measure one workload; returns the result object ``main`` prints,
    plus the ``cells`` and ``host_slowness`` it prints on the line before.

    ``sizes`` overrides the workload's sizes (the tests pass tiny ones);
    outputs are then checked only against each other, not against the
    digests pinned for the benchmark's sizes.
    """
    workload = import_workloads().make(name, **(sizes or {}))
    inputs = workload.build(seed)
    expected = None if sizes else pinned_digest(name, seed)
    tally = {"attempted": 0, "failed": 0}

    def fail(count: int, why: str) -> None:
        tally["failed"] += count
        print(f"{name}: FAILED {why}", file=sys.stderr)

    def one(workdir, mark=lambda cell: None):
        gc.collect()
        start = perf_counter()
        batch = workload.run(inputs, workdir, mark)
        wall = perf_counter() - start
        tally["attempted"] += batch.attempted
        tally["failed"] += batch.failed
        return batch, wall, workload.digest(batch)

    OUT.mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        warm, _, reference = one(work / "warmup")
        if expected is not None and reference != expected:
            fail(warm.attempted, f"seed {seed} digest {reference} != pinned {expected}")
        checked, mismatches = workload.cross_check(inputs, warm)
        tally["attempted"] += checked
        if mismatches:
            fail(mismatches, f"{mismatches}/{checked} per-trial re-runs differ")
        shutil.rmtree(work / "warmup", ignore_errors=True)

        # The host is shared: its speed drifts by up to a factor of two
        # within minutes and changes in bursts of seconds.  So every timed batch, and one
        # cold launch before it, sits between two host probes, and its time
        # is divided by their slowness against the reference; and launches
        # spread over the run give a steadier median than back to back.
        repeats, launched = [], []
        deadline = perf_counter() + seconds
        while len(repeats) < min_repeats or perf_counter() < deadline:
            before = probe_host()
            setup, timings = cold_launch(name, seed)
            workdir = work / f"repeat{len(repeats)}"
            batch, wall, digest = one(workdir)
            slow = slowness(before)
            shutil.rmtree(workdir, ignore_errors=True)
            if digest != reference:
                fail(batch.attempted, f"repeat {len(repeats)} digest differs")
            repeats.append((batch, wall / slow, slow))
            launched.append((setup / slow, timings))
        while len(launched) < launches:
            before = probe_host()
            setup, timings = cold_launch(name, seed)
            launched.append((setup / slowness(before), timings))

        if trace:
            import spans

            tracer = spans.Tracer()
            label = f"repeat{len(repeats)}"

            def mark(cell: str) -> None:
                tracer.request = f"{name}/{label}/{cell}"

            before = probe_host()
            with tracer.installed():
                batch, wall, digest = one(work / label, mark)
            slow = slowness(before)
            if digest != reference:
                fail(batch.attempted, "traced digest differs")
            tracer.write(OUT / f"trace-{name}.jsonl")
            values = spans.layer_metrics(tracer.spans, wall)
            values["bytes_written"] = sum(
                f.stat().st_size for f in (work / label).rglob("*") if f.is_file()
            )
            untraced = statistics.median(w for _, w, _ in repeats)
            values["trace.overhead_ratio"] = wall / slow / untraced
            values.update(untraced_layers(launched, repeats))
            section = "per_layer"
        else:
            values = {
                "setup_s": statistics.median(s for s, _ in launched),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "work_per_s": statistics.median(b.work / w for b, w, _ in repeats),
            }
            section = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": tally["failed"] == 0,
        "attempted": max(1, tally["attempted"]),
        "failed": tally["failed"],
        "metrics": {
            k: {"value": values[k], "unit": unit} for k, unit in units(section).items()
        },
        "cells": cell_rates(repeats),
        "host_slowness": statistics.median(s for _, _, s in repeats),
    }


def slowness(before: float) -> float:
    """How much slower than the reference the host ran since ``before``
    was probed: the mean of that probe and a new one, over the reference."""
    return (before + probe_host()) / (2 * REFERENCE_PROBE_S)


def cell_rates(repeats) -> dict:
    """Median trials per reference-host second of each sweep cell over the
    timed batches, untraced (empty for the study and the stream)."""
    rates = {}
    for batch, _, slow in repeats:
        for cell, rate in batch.cell_rates.items():
            rates.setdefault(cell, []).append(rate * slow)
    return {cell: statistics.median(r) for cell, r in rates.items()}


def untraced_layers(launched, repeats) -> dict:
    """Per-layer metrics measured by the benchmark's own loop, untraced."""
    from workloads import sweep_cells

    values = {
        "import.numpy_s": statistics.median(p["import_numpy_s"] for _, p in launched),
        "import.repro_s": statistics.median(p["import_repro_s"] for _, p in launched),
    }
    gaps = [gap for batch, _, _ in repeats for gap in batch.gaps]
    values["window_ms_p50"] = _percentile_ms(gaps, 50)
    values["window_ms_p99"] = _percentile_ms(gaps, 99)
    cells = cell_rates(repeats)
    for cell in sweep_cells():
        values[f"cell.{cell}.trials_per_s"] = cells.get(cell, 0.0)
    values["host.slowness"] = statistics.median(s for _, _, s in repeats)
    return values


# -------------------------------------------------------- all-workload mode


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a subprocess: its result object, plus ``cells`` and
    ``host_slowness`` from the line before it."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return {**json.loads(lines[-1]), **json.loads(lines[-2])}
    except (IndexError, TypeError, json.JSONDecodeError):
        return FAILED


def run_all(seed: int, seconds: float, trace: bool, out) -> int:
    import compare

    report = {
        "seed": seed,
        "seconds": seconds,
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {name: {"runs": [], "traced": None} for name in workload_names()},
    }
    for i in range(RUNS):
        for name in report["workloads"]:
            print(f"run {i + 1}/{RUNS}: {name}", file=sys.stderr)
            report["workloads"][name]["runs"].append(_child(name, seed, seconds, 0))
    if trace:
        for name in report["workloads"]:
            print(f"traced run: {name}", file=sys.stderr)
            report["workloads"][name]["traced"] = _child(name, seed, seconds, 1)
    out = pathlib.Path(out) if out else OUT / f"report-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(compare.summarize(report))
    print(f"report: {out}")
    results = [r for w in report["workloads"].values() for r in w["runs"] + [w["traced"]] if r]
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="report path without --workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    try:
        if args.setup_only:
            setup_probe(args.workload, args.seed)
            return 0
        import_workloads()
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        result = dict(FAILED, cells={}, host_slowness=None)
    side = {key: result.pop(key) for key in ("cells", "host_slowness")}
    print(json.dumps(side))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
