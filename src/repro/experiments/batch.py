"""Warm-pool batched trial execution: the sweep throughput layer.

The paper's guarantees are probabilistic, so every experiment is a Monte
Carlo sweep over many seeded trials — which makes *trial throughput*, not
single-run step rate, the binding constraint on sweep wall-clock.  The
naive fan-out (one pickled task per trial, a fresh problem build per
trial) pays three overheads that dwarf the PR-1-optimized engine loop:
process/task dispatch, per-trial re-pickling, and redundant
``(network, geometry, paths)`` construction.  This module removes all
three while keeping the pinned guarantee that serial and parallel sweeps
return **byte-identical** records for the same specs:

* **Persistent workers.**  One :class:`~concurrent.futures.
  ProcessPoolExecutor` per sweep, whose initializer pre-imports the
  scenario registries and opens the on-disk :class:`~repro.scenarios.
  ResultCache` once, so no per-trial import or open cost remains.
* **Chunked dispatch.**  Workers receive chunks of
  :class:`~repro.scenarios.RunSpec` (sized by :func:`default_chunksize`,
  which respects a minimum and a maximum per-chunk duration) instead of
  one pickled task per trial, and return chunks of data-only records —
  the materialized problem never crosses the process boundary.
* **Per-worker scenario warm cache.**  Each worker holds a
  :class:`~repro.scenarios.ScenarioCache` keyed by
  :meth:`RunSpec.scenario_hash`, so all trials sharing a scenario (seeds
  re-randomize frontier-set assignment and tie-breaks, never the problem —
  see :meth:`RunSpec.with_pinned_scenario`) build the problem once per
  worker.
* **Adaptive dispatch.**  :func:`run_spec_trials` first runs a
  small probe chunk in the parent, estimates per-trial cost, and falls
  back to (warm) serial execution when the remaining batch is too small to
  amortize pool spin-up — so tiny sweeps are never slower than a plain
  loop.  Requested workers are also clamped to the CPUs actually usable in
  this process: on a single-core host a ``workers=4`` sweep runs the warm
  serial path instead of paying fork-and-pickle for no parallelism.

Determinism: a trial's outcome is a pure function of its spec, the warm
cache only deduplicates pure builds, and records are assembled in spec
order — so the execution strategy (serial, warm serial, pooled, any chunk
size) can never leak into results, telemetry counters, or trace digests
(pinned by ``tests/test_scenarios.py`` and ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from time import perf_counter
from typing import List, Optional, Sequence

from ..scenarios import ScenarioCache
from ..scenarios.cache import DEFAULT_SCENARIO_CAPACITY

#: Budget for spinning up a worker pool (fork/spawn, initializer imports,
#: first-chunk latency).  Deliberately pessimistic: when in doubt the
#: dispatcher stays serial, which is never worse than today's loop.
POOL_SPINUP_SEC = 0.35

#: Projected pool savings must exceed spin-up by this factor before the
#: dispatcher commits to forking (guards against estimate noise).
POOL_ADVANTAGE_MARGIN = 1.25

#: Trials executed in the parent to estimate per-trial cost ("the first
#: completed chunk" of the adaptive dispatcher).
PROBE_TRIALS = 4

#: Widest batch one lockstep kernel instance advances at once.  Wider
#: batches amortize dispatch better but pay more memory and more masked
#: work per straggler trial; 64 matches the fixed-problem bench and keeps
#: the stacked arrays comfortably in cache for typical problem sizes.
LOCKSTEP_MAX_TRIALS = 64

#: Fewest trials (disk-cache misses) of a group the executor sends to the
#: lockstep kernel; fewer run trial by trial on the reference engine.  This
#: is the measured
#: crossover over the five benchmark cells (widths 1, 2, 4, 5, 6, 8 and 64;
#: docs/performance.md, "Executor integration"): up to width 5 the
#: reference engine is faster on ``deep_random`` and the three contended
#: cells, and from width 6 lockstep wins on both ``deep_random`` and
#: ``butterfly_random``.  Unpinned sweeps, where every trial builds its own
#: instance, always produce groups of 1.
LOCKSTEP_MIN_TRIALS = 6

#: Spec backends the lockstep kernel can execute, mapped to the kernel
#: family that runs them.  ``frontier_vec``/``naive_vec`` are registry
#: aliases of ``frontier``/``naive``; specs keep the backend string as
#: written (it is part of their hash), so both spellings appear here.
_LOCKSTEP_FAMILIES = {
    "frontier": "frontier",
    "frontier_vec": "frontier",
    "naive": "naive",
    "naive_vec": "naive",
}


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


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


def should_use_pool(
    num_trials: int,
    per_trial_sec: float,
    workers: int,
    spinup_sec: float = POOL_SPINUP_SEC,
) -> bool:
    """The serial-fallback boundary of the adaptive dispatcher.

    Pool dispatch is worth it only when the projected wall-clock saving of
    fanning ``num_trials`` across ``workers`` processes exceeds the pool's
    spin-up cost with a safety margin.  Small or cheap batches therefore
    stay on the (warm) serial path — never slower than a plain loop.
    """
    if workers <= 1 or num_trials <= 1:
        return False
    serial_sec = num_trials * max(per_trial_sec, 0.0)
    projected_saving = serial_sec * (1.0 - 1.0 / workers)
    return projected_saving > spinup_sec * POOL_ADVANTAGE_MARGIN


class TrialExecutor:
    """Executes specs with warm scenario reuse; one per process.

    Bundles the per-process execution state — the scenario warm cache, the
    optional on-disk result-cache root, and the telemetry flag — so the
    same code path serves the parent (serial and probe execution) and
    every pool worker.
    """

    def __init__(
        self,
        cache_root: Optional[pathlib.Path] = None,
        telemetry: bool = False,
        warm: bool = True,
        capacity: int = DEFAULT_SCENARIO_CAPACITY,
        lockstep: bool = True,
    ) -> None:
        self.cache_root = cache_root
        self.telemetry = telemetry
        # ``warm`` may pass an existing ScenarioCache so callers running
        # many batches over one scenario (the sweep driver's shard loop)
        # share a single problem build across executors.
        if isinstance(warm, ScenarioCache):
            self.scenarios = warm
        else:
            self.scenarios = ScenarioCache(capacity) if warm else None
        self.lockstep = lockstep

    def run(self, spec):
        """Execute one spec, returning a data-only record (no problem)."""
        from ..scenarios import run_cached, run_trial

        if self.cache_root is not None:
            record = run_cached(
                spec,
                self.cache_root,
                telemetry=self.telemetry,
                warm=self.scenarios,
            )
        else:
            record = run_trial(
                spec, telemetry=self.telemetry, warm=self.scenarios
            )
        # Sweep records are plain data: the materialized problem is shared
        # with the warm cache and must not ride back across process
        # boundaries (pickling it per trial is what made the old pool 5x
        # slower than serial).
        record.problem = None
        return record

    # --------------------------------------------------- lockstep batching

    def _group_key(self, spec):
        """Lockstep grouping key for ``spec``, or None when ineligible.

        Two specs with equal keys are guaranteed to materialize the *same*
        routing problem (``scenario_hash`` covers every resolved component
        seed) and run it under the same backend family and parameters, so
        the stacked kernel can advance them in one set of arrays.  Trials
        needing per-trial machinery peel off to :meth:`run`: telemetry or
        an ambient trace session (the lockstep kernel carries no
        observers), invariant audits, arrival schedules, non-lockstep
        backends, or a missing numpy.  An eligible key only makes the spec
        a candidate: :meth:`_run_lockstep` still runs a group per trial
        when fewer than :data:`LOCKSTEP_MIN_TRIALS` of its trials miss the
        disk cache.
        """
        if not self.lockstep or self.telemetry:
            return None
        family = _LOCKSTEP_FAMILIES.get(spec.backend)
        if family is None or spec.arrival:
            return None
        if family == "frontier" and spec.backend_params.get("audit"):
            return None
        from ..sim.soa import NUMPY_AVAILABLE

        if not NUMPY_AVAILABLE:
            return None
        from ..telemetry.context import current_session

        if current_session() is not None:
            return None
        return (
            spec.scenario_hash(),
            family,
            json.dumps(dict(spec.backend_params), sort_keys=True),
        )

    def run_chunk(self, specs: Sequence) -> List:
        """Execute a chunk of specs in order, lockstepping where possible.

        Consecutive specs sharing a :meth:`_group_key` (a fixed-problem
        Monte Carlo run differing only in seed) form a group of up to
        :data:`LOCKSTEP_MAX_TRIALS` trials, handed to :meth:`_run_lockstep`;
        every ineligible spec falls through to the ordinary per-trial
        :meth:`run`.  Records come back in spec order and are
        byte-identical to a per-trial loop — the kernel's per-trial RNG
        streams replay the serial draws exactly (pinned by
        ``tests/test_engine_lockstep.py``).
        """
        specs = list(specs)
        records: List = []
        i, n = 0, len(specs)
        while i < n:
            key = self._group_key(specs[i])
            j = i + 1
            while (
                key is not None
                and j < n
                and j - i < LOCKSTEP_MAX_TRIALS
                and self._group_key(specs[j]) == key
            ):
                j += 1
            if key is not None:
                records.extend(self._run_lockstep(specs[i:j], key[1]))
            else:
                records.append(self.run(specs[i]))
            i = j
        return records

    def _run_lockstep(self, group: Sequence, family: str) -> List:
        """Run one homogeneous group, in spec order, choosing the kernel.

        Disk-cache hits peel out first (returned exactly as :func:`~repro.
        scenarios.run_cached` would return them).  When at least
        :data:`LOCKSTEP_MIN_TRIALS` misses remain they run as one lockstep
        batch over the group's shared warm problem and are stored back, so
        cache contents match the per-trial path byte for byte; fewer misses
        run through the per-trial :meth:`run`, where the reference engine
        is the faster kernel.
        """
        from ..scenarios.dispatch import ScenarioRun, build_problem

        cache = None
        if self.cache_root is not None:
            from ..scenarios.cache import ResultCache

            cache = ResultCache(self.cache_root)
        slots: List[Optional[ScenarioRun]] = []
        misses: List[int] = []
        for spec in group:
            hit = cache.load_record(spec) if cache is not None else None
            if hit is not None:
                result, timings = hit
                slots.append(
                    ScenarioRun(
                        spec=spec, result=result, cached=True, timings=timings
                    )
                )
            else:
                slots.append(None)
                misses.append(len(slots) - 1)
        if len(misses) < LOCKSTEP_MIN_TRIALS:
            for k in misses:
                slots[k] = self.run(group[k])
            return slots
        first = group[misses[0]]
        problem = (
            self.scenarios.problem_for(first)
            if self.scenarios is not None
            else build_problem(first)
        )
        seeds = [group[k].seed for k in misses]
        tag = f"lockstep[w={len(seeds)}]"
        if family == "frontier":
            from .runner import run_frontier_trials_lockstep

            params = dict(first.backend_params)
            params.pop("audit", None)
            params.pop("audit_congestion_bound", None)
            results = [
                rec.result
                for rec in run_frontier_trials_lockstep(
                    problem,
                    seeds,
                    condition_sets=bool(params.pop("condition_sets", False)),
                    fast_forward=bool(params.pop("fast_forward", True)),
                    max_steps=params.pop("max_steps", None),
                    **params,
                )
            ]
        else:
            from .configs import baseline_budget
            from .runner import run_naive_trials_lockstep

            explicit = first.backend_params.get("max_steps")
            budget = (
                int(explicit)
                if explicit is not None
                else baseline_budget(problem)
            )
            results = run_naive_trials_lockstep(problem, seeds, budget)
        for k, result in zip(misses, results):
            spec = group[k]
            if cache is not None:
                cache.store(spec, result)
            slots[k] = ScenarioRun(spec=spec, result=result, executor=tag)
        return slots


# ------------------------------------------------------- pool worker plumbing
#
# Module-level state + functions (not closures) so the pool can pickle the
# chunk task; the initializer runs once per worker process.

_WORKER: Optional[TrialExecutor] = None


def _init_worker(
    cache_root: Optional[pathlib.Path],
    telemetry: bool,
    warm: bool,
    capacity: int,
    lockstep: bool = True,
) -> None:
    """Pool initializer: pre-import the pipeline, set up per-worker state."""
    global _WORKER
    # Importing the scenario package populates all four component
    # registries; the runner import pulls in the frontier algorithm stack.
    # Under the spawn start method this moves the entire import cost out of
    # the first chunk; under fork it is a no-op revalidation.
    import repro.experiments.runner  # noqa: F401
    import repro.scenarios  # noqa: F401

    _WORKER = TrialExecutor(
        cache_root,
        telemetry=telemetry,
        warm=warm,
        capacity=capacity,
        lockstep=lockstep,
    )


def _run_chunk(chunk: Sequence) -> List:
    """Execute one chunk of specs in a pool worker, in order."""
    executor = _WORKER
    if executor is None:  # pool built without the initializer; be safe
        executor = TrialExecutor(warm=False)
    return executor.run_chunk(chunk)


# ------------------------------------------------------------ sweep dispatch


def _cache_root(cache) -> Optional[pathlib.Path]:
    if cache is None:
        return None
    if isinstance(cache, (str, pathlib.Path)):
        # Paths are the root themselves; PosixPath.root is the filesystem
        # anchor ("/"), so the getattr below must never see them.
        return pathlib.Path(cache)
    return pathlib.Path(getattr(cache, "root", cache))


def run_spec_trials(
    specs: Sequence,
    workers: int = 1,
    chunksize: Optional[int] = None,
    cache=None,
    telemetry: bool = False,
    progress=None,
    warm: bool = True,
    dispatch: str = "auto",
    collect: bool = True,
    lockstep: bool = True,
):
    """Run a list of :class:`~repro.scenarios.RunSpec`, records in spec order.

    The one sweep primitive: each spec runs through
    :func:`repro.scenarios.run_trial` (or :func:`~repro.scenarios.run_cached`
    when ``cache`` names a cache directory), and because a spec's outcome
    is a pure function of its content, every execution strategy returns
    byte-identical records.  Specs are plain data, so they pickle across
    the pool by construction.  ``dispatch`` picks the strategy:

    * ``"auto"`` (default) — clamp ``workers`` to usable CPUs, run a probe
      chunk in the parent to estimate per-trial cost, then either finish
      serially (batch too small to amortize pool spin-up) or fan the rest
      across a persistent worker pool in duration-sized chunks;
    * ``"serial"`` — force the warm in-process loop;
    * ``"pool"`` — force pool dispatch for every spec (no probe, no CPU
      clamp); used by tests and benchmarks that must exercise the pool
      machinery regardless of host shape.

    Trials sharing a scenario reuse one materialized problem per process
    (``warm=True``, the default — disable to force a fresh build per
    trial).  Records are data-only: ``record.problem`` is ``None`` (the
    build lives in the warm cache, not on the record), so sweeps never
    pickle networks back from workers.

    ``telemetry=True`` runs every trial under its own telemetry session
    (one per worker process): each record comes back with
    ``result.telemetry`` counters and pipeline ``timings`` attached, ready
    for :func:`repro.telemetry.aggregate_counters`.  ``progress(done,
    total, record)`` fires in the parent after each record, in spec order.

    ``collect=False`` switches to streaming mode for very large batches:
    each record is handed to ``progress`` exactly as usual but *not*
    retained, and the return value is an empty list — so peak memory is
    one chunk of records, independent of ``len(specs)``.  The sweep store
    (:mod:`repro.sweeps`) runs every shard this way.

    Within every strategy, consecutive specs that differ only in seed
    (fixed-problem Monte Carlo batches) execute on the lockstep stacked
    kernel in groups of :data:`LOCKSTEP_MIN_TRIALS` to
    :data:`LOCKSTEP_MAX_TRIALS` disk-cache misses — process-level
    parallelism multiplies lockstep width instead of replacing it.
    Narrower groups, including every trial of an unpinned sweep (each
    trial its own instance), run per trial on the reference engine.
    ``lockstep=False`` forces the per-trial path everywhere (benchmarks use
    it to measure the kernel's speedup; results are byte-identical either
    way — see :meth:`TrialExecutor.run_chunk`).
    """
    if dispatch not in ("auto", "serial", "pool"):
        raise ValueError(
            f"dispatch must be 'auto', 'serial', or 'pool', got {dispatch!r}"
        )
    specs = list(specs)
    total = len(specs)
    root = _cache_root(cache)
    workers = resolve_workers(workers)
    if dispatch == "auto":
        workers = min(workers, usable_cpus())

    executor = TrialExecutor(
        root, telemetry=telemetry, warm=warm, lockstep=lockstep
    )
    records: List = []
    done = 0

    def _emit(record) -> None:
        nonlocal done
        done += 1
        if collect:
            records.append(record)
        if progress is not None:
            progress(done, total, record)

    def _serial(batch) -> None:
        for record in executor.run_chunk(batch):
            _emit(record)

    if dispatch == "serial" or (dispatch == "auto" and (workers <= 1 or total <= 1)):
        _serial(specs)
        return records

    remaining = specs
    per_trial: Optional[float] = None
    if dispatch == "auto":
        # Probe chunk: run a few trials in the parent (warm), time them,
        # and only fork when the remainder amortizes pool spin-up.
        probe = specs[: min(PROBE_TRIALS, total)]
        start = perf_counter()
        _serial(probe)
        per_trial = (perf_counter() - start) / len(probe)
        remaining = specs[len(probe):]
        if not remaining or not should_use_pool(
            len(remaining), per_trial, workers
        ):
            _serial(remaining)
            return records

    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = default_chunksize(
            len(remaining), workers, per_item_sec=per_trial
        )
    chunks = [
        remaining[i : i + chunksize]
        for i in range(0, len(remaining), chunksize)
    ]
    capacity = (
        executor.scenarios.capacity
        if executor.scenarios is not None
        else DEFAULT_SCENARIO_CAPACITY
    )
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker,
        # A ScenarioCache instance cannot cross the process boundary;
        # workers get a fresh warm cache of the same capacity instead.
        initargs=(root, telemetry, bool(warm), capacity, lockstep),
    ) as pool:
        # chunksize=1: each mapped item is already a chunk of specs.
        for chunk_records in pool.map(_run_chunk, chunks):
            for record in chunk_records:
                _emit(record)
    return records
