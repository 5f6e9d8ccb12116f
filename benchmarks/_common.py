"""Shared helpers for the benchmark/reproduction harness.

Every ``bench_*.py`` module regenerates one experiment from DESIGN.md's
index.  Tables are printed (visible with ``pytest -s``) *and* written to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote them
after any run.  Experiments run their trials as specs through
:func:`run_pinned`, the executor path every sweep takes.
"""

from __future__ import annotations

import os
import pathlib

from repro.experiments import run_spec_trials
from repro.scenarios import build_problem

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(experiment_id: str, text: str) -> None:
    """Print a reproduction table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id}.txt"
    with path.open("a", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n\n")


def reset(experiment_id: str) -> None:
    """Start a fresh results file for one experiment."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text("", encoding="utf-8")


def once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (expensive end-to-end runs)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def bench_workers(default: int = 1) -> int:
    """Trial-sweep worker count for benches that fan seeds out.

    Set by ``python -m repro experiment <id> --workers N`` (via the
    ``$REPRO_BENCH_WORKERS`` environment variable) or directly in the
    environment.  Sweeps return identical records at any worker count, so
    this only changes wall-clock time, never a reproduction table.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def run_pinned(specs, seeds):
    """Run each spec's instance once per routing seed, through the executor.

    ``specs`` is one :class:`~repro.scenarios.RunSpec` or a list of them
    (say, one per backend on a shared instance).  Each is pinned to its
    resolved component seeds, so its trials route one fixed problem and
    only the backend's coins follow ``seeds``.  The trials run through
    :func:`~repro.experiments.run_spec_trials` on :func:`bench_workers`
    processes, without a result cache.  Returns ``(problem, records)``:
    the first spec's problem, built once for the table's columns, and the
    records spec by spec, seed by seed.
    """
    if not isinstance(specs, (list, tuple)):
        specs = [specs]
    pinned = [spec.with_pinned_scenario() for spec in specs]
    records = run_spec_trials(
        [trial for spec in pinned for trial in spec.with_seeds(seeds)],
        workers=bench_workers(),
    )
    return build_problem(pinned[0]), records
