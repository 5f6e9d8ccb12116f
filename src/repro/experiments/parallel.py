"""Parallel trial execution across a process pool.

Trial sweeps are embarrassingly parallel: every trial derives its RNG
streams from its own integer seed via :func:`repro.rng.stable_hash_seed`,
so a trial's outcome is a pure function of ``(problem_factory, seed,
kwargs)`` and is *identical* no matter which process (or machine) runs it.
This module fans sweeps across a :class:`concurrent.futures.
ProcessPoolExecutor` in seed-order-preserving chunks; ``workers=1`` (the
default everywhere) short-circuits to plain in-process loops, so serial and
parallel runs return byte-identical records for the same seeds.

Requirements for ``workers > 1``: the problem factory / router factory and
their captured arguments must be picklable (module-level functions and
:func:`functools.partial` over them are; lambdas and closures are not), as
must the routing problem itself — :class:`~repro.net.LeveledNetwork` and
:class:`~repro.paths.RoutingProblem` are plain-data containers, so every
instance built by :mod:`repro.experiments.configs` qualifies.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, List, Optional, Sequence, TypeVar

from ..paths import RoutingProblem
from ..rng import stable_hash_seed
from ..sim import Router, RunResult

T = TypeVar("T")
U = TypeVar("U")

#: Environment knob read by the benchmark harness (see benchmarks/_common.py
#: and ``python -m repro experiment --workers``).
WORKERS_ENV_VAR = "REPRO_BENCH_WORKERS"


def resolve_workers(workers: Optional[int]) -> int:
    """Clamp a worker count: ``None``/0/negatives mean serial."""
    if workers is None or workers < 1:
        return 1
    return workers


#: Minimum wall-clock duration one dispatched chunk should represent: for
#: very cheap items, chunks grow beyond the count-based default so pickling
#: and queue round-trips stay amortized.
MIN_CHUNK_SEC = 0.025

#: Maximum wall-clock duration one dispatched chunk should represent.
#: Progress callbacks fire as whole chunks stream back to the parent, so
#: uncapped chunks on very large batches (a 10^5-trial shard split 4 ways
#: is a 6000+-trial chunk) would go *minutes* between callbacks — starving
#: sweep heartbeats, lease liveness, and resume granularity.
MAX_CHUNK_SEC = 2.0

#: Absolute chunk cap when no per-item cost estimate is available: bounds
#: worst-case callback latency and the records held in flight per chunk.
MAX_CHUNK_ITEMS = 512


def default_chunksize(
    num_items: int,
    workers: int,
    per_item_sec: Optional[float] = None,
    min_chunk_sec: float = MIN_CHUNK_SEC,
    max_chunk_sec: float = MAX_CHUNK_SEC,
) -> int:
    """Chunked dispatch: ~4 chunks per worker bounds scheduling overhead
    while keeping the pool load-balanced when trial durations vary.

    When the caller knows the per-item cost (the adaptive dispatcher's
    probe measures it), chunks are additionally sized up to a minimum
    duration target — capped at one chunk per worker so every worker still
    gets work — and *down* to a maximum duration target, so progress
    callbacks keep firing every few seconds on 10^5-item batches.  Without
    a cost estimate the count-based heuristic applies under an absolute
    ``MAX_CHUNK_ITEMS`` cap.
    """
    if workers <= 1:
        return max(1, num_items)
    size = max(1, math.ceil(num_items / (workers * 4)))
    if per_item_sec is not None and per_item_sec > 0:
        by_duration = math.ceil(min_chunk_sec / per_item_sec)
        per_worker_cap = max(1, math.ceil(num_items / workers))
        size = max(size, min(by_duration, per_worker_cap))
        size = min(size, max(1, int(max_chunk_sec / per_item_sec)))
    return min(size, MAX_CHUNK_ITEMS)


#: Per-item progress callback: ``progress(done, total, item_result)``.
ProgressFn = Callable[[int, int, object], None]


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    workers: int = 1,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> List[U]:
    """Order-preserving map over a process pool (serial when ``workers<=1``).

    ``fn`` and every item must be picklable when ``workers > 1``.
    ``progress`` fires in the parent process after each item's result is
    available, in item order (``pool.map`` streams results back in order,
    so progress over a parallel run advances as chunks complete).
    """
    workers = resolve_workers(workers)
    items = list(items)
    total = len(items)
    if workers <= 1 or total <= 1:
        out: List[U] = []
        for item in items:
            value = fn(item)
            out.append(value)
            if progress is not None:
                progress(len(out), total, value)
        return out
    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = default_chunksize(total, workers)
    with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
        if progress is None:
            return list(pool.map(fn, items, chunksize=chunksize))
        out = []
        for value in pool.map(fn, items, chunksize=chunksize):
            out.append(value)
            progress(len(out), total, value)
        return out


# ------------------------------------------------------------ trial workers
#
# Module-level functions (not closures) so the pool can pickle them; the
# sweep parameters ride along via functools.partial.


def _frontier_trial_task(problem_factory, kwargs: dict, seed: int):
    from .runner import run_frontier_trial

    return run_frontier_trial(problem_factory(seed), seed=seed, **kwargs)


def _frontier_fixed_problem_task(problem: RoutingProblem, kwargs: dict, seed: int):
    from .runner import run_frontier_trial

    return run_frontier_trial(problem, seed=seed, **kwargs)


def _router_trial_task(
    problem: RoutingProblem, router_factory, max_steps: int, seed: int
) -> RunResult:
    from .runner import run_router_trial

    return run_router_trial(problem, router_factory, seed, max_steps)


# ---------------------------------------------------------------- sweep API


def run_frontier_trials_parallel(
    problem_factory: Callable[[int], RoutingProblem],
    seeds: Sequence[int],
    workers: int = 1,
    chunksize: Optional[int] = None,
    **kwargs,
):
    """One frontier trial per seed, fanned across ``workers`` processes.

    Each trial regenerates its problem from its seed inside the worker, so
    only the (small) factory and sweep kwargs cross the process boundary.
    Records come back in seed order and match ``workers=1`` exactly.
    """
    task = functools.partial(_frontier_trial_task, problem_factory, kwargs)
    return parallel_map(task, seeds, workers=workers, chunksize=chunksize)


def run_trials_for_problem(
    problem: RoutingProblem,
    seeds: Sequence[int],
    workers: int = 1,
    chunksize: Optional[int] = None,
    **kwargs,
):
    """Frontier trials of one *fixed* problem under several seeds.

    The sweep shape used by the T1 benchmarks: the instance is held fixed
    while the algorithm's coins vary.  The problem is pickled once per
    worker (chunked dispatch), not once per seed.
    """
    task = functools.partial(_frontier_fixed_problem_task, problem, kwargs)
    return parallel_map(task, seeds, workers=workers, chunksize=chunksize)


def run_router_trials(
    problem: RoutingProblem,
    router_factory: Callable[[int], Router],
    seeds: Sequence[int],
    max_steps: int,
    workers: int = 1,
    chunksize: Optional[int] = None,
) -> List[RunResult]:
    """Baseline-router sweep over seeds (serial or parallel).

    ``router_factory`` must be picklable for ``workers > 1`` (the baseline
    router classes themselves are; pass the class or a ``partial``).
    """
    task = functools.partial(
        _router_trial_task, problem, router_factory, max_steps
    )
    return parallel_map(task, seeds, workers=workers, chunksize=chunksize)


def run_spec_trials(
    specs: Sequence,
    workers: int = 1,
    chunksize: Optional[int] = None,
    cache=None,
    telemetry: bool = False,
    progress: Optional[ProgressFn] = None,
    warm: bool = True,
    dispatch: str = "auto",
    lockstep: bool = True,
):
    """Dispatch a list of :class:`~repro.scenarios.RunSpec` (serial/parallel).

    The scenario-layer sweep primitive: each spec runs through
    :func:`repro.scenarios.run_trial` (or :func:`~repro.scenarios.run_cached`
    when ``cache`` names a cache directory), records come back in spec
    order, and — because a spec's outcome is a pure function of its content
    — serial and parallel runs are byte-identical.  Specs are plain data,
    so they pickle across the pool by construction.

    Execution goes through the batched layer
    (:mod:`repro.experiments.batch`): trials sharing a scenario reuse one
    materialized problem per process (``warm=True``, the default — disable
    to force a fresh build per trial), and ``workers > 1`` dispatches
    chunks of specs to a persistent pool only when the adaptive probe
    decides the batch amortizes pool spin-up; small batches always run the
    warm serial path.  ``dispatch`` overrides the strategy (``"auto"`` /
    ``"serial"`` / ``"pool"``, see
    :func:`~repro.experiments.batch.run_spec_trials_batched`).

    Records are data-only: ``record.problem`` is ``None`` (the build lives
    in the warm cache, not on the record), so sweeps never pickle networks
    back from workers.

    ``telemetry=True`` runs every trial under its own telemetry session
    (one per worker process): each record comes back with
    ``result.telemetry`` counters and pipeline ``timings`` attached, ready
    for :func:`repro.telemetry.aggregate_counters`.  ``progress`` is the
    per-trial callback of :func:`parallel_map`.

    Fixed-problem seed sweeps additionally execute on the lockstep stacked
    kernel in batches of at least
    :data:`~repro.experiments.batch.LOCKSTEP_MIN_TRIALS` trials
    (``lockstep=False`` forces per-trial execution;
    records are byte-identical either way — see
    :meth:`~repro.experiments.batch.TrialExecutor.run_chunk`).
    """
    from .batch import run_spec_trials_batched

    return run_spec_trials_batched(
        specs,
        workers=workers,
        chunksize=chunksize,
        cache=cache,
        telemetry=telemetry,
        progress=progress,
        warm=warm,
        dispatch=dispatch,
        lockstep=lockstep,
    )


def run_specs(
    specs: Sequence,
    workers: int = 1,
    chunksize: Optional[int] = None,
    cache=None,
) -> List[RunResult]:
    """Like :func:`run_spec_trials`, returning bare results."""
    return [
        record.result
        for record in run_spec_trials(
            specs, workers=workers, chunksize=chunksize, cache=cache
        )
    ]


def env_workers(default: int = 1) -> int:
    """Worker count from ``$REPRO_BENCH_WORKERS`` (benchmark harness knob)."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return default
    try:
        return resolve_workers(int(raw))
    except ValueError:
        return default


def derive_sweep_seeds(base_seed: int, count: int) -> List[int]:
    """Deterministic, well-separated per-trial seeds for a sweep."""
    return [stable_hash_seed(base_seed, index) for index in range(count)]
