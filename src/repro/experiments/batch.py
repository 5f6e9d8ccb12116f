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
* **Adaptive dispatch.**  :meth:`TrialExecutor.run_specs` first runs the
  leading groups in the parent as a probe, estimates per-trial cost, and
  stays serial when the remaining batch is too small to amortize pool
  spin-up — so tiny sweeps are never slower than a plain loop.  Requested
  workers are also clamped to the CPUs actually usable in this process: on
  a single-core host a ``workers=4`` sweep runs serially instead of paying
  fork-and-pickle for no parallelism.
* **One result-cache pass.**  The executor that runs a group (the parent,
  or the pool worker holding its chunk) looks each spec up in the on-disk
  cache once and stores each miss once, whichever kernel ran it.

Determinism: a trial's outcome is a pure function of its spec, the warm
cache only deduplicates pure builds, and records are assembled in spec
order — so the execution strategy (serial or pooled, any chunk size) can
never leak into results, telemetry counters, or trace digests (pinned by
``tests/test_scenarios.py`` and ``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from time import perf_counter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from ..scenarios import ResultCache, ScenarioCache

#: Budget for spinning up a worker pool (fork/spawn, initializer imports,
#: first-chunk latency).  Deliberately pessimistic: when in doubt the
#: dispatcher stays serial, which is never worse than today's loop.
POOL_SPINUP_SEC = 0.35

#: Projected pool savings must exceed spin-up by this factor before the
#: dispatcher commits to forking (guards against estimate noise).
POOL_ADVANTAGE_MARGIN = 1.25

#: Most consecutive specs :meth:`TrialExecutor.groups` puts in one group.
#: A lockstep tick costs about the same at width 64 as at width 256, so a
#: wide group pays fewer ticks per trial; how many trials one kernel batch
#: advances at once is bounded by :data:`LOCKSTEP_MAX_SLOTS` instead.
LOCKSTEP_MAX_TRIALS = 256

#: Most ``(trial, packet)`` slots one lockstep kernel batch holds: a
#: batch's arrays, and its records, scale with trials times packets.
#: 4,096 is 64 trials of 64 packets.  A batch still takes at least
#: :data:`LOCKSTEP_MIN_TRIALS` trials, however many packets they route.
LOCKSTEP_MAX_SLOTS = 4096

#: Fewest trials (disk-cache misses) of a group the executor sends to the
#: lockstep kernel; fewer run trial by trial on the reference engine.  This
#: is the measured
#: crossover over the five benchmark cells (widths 1, 2, 4, 5, 6, 8 and 64;
#: docs/performance.md, "Executor integration"): up to width 5 the
#: reference engine is faster on ``deep_random`` and the three contended
#: cells, and from width 6 lockstep wins on both ``deep_random`` and
#: ``butterfly_random``.  Unpinned groups (one problem per trial) cross
#: over at about the same widths: from 4 on ``butterfly_random``, from 6 on
#: ``naive_hotrow``, and above 8 on ``butterfly_hotrow`` and
#: ``mesh_corner_shift``, which also lose narrow pinned groups.
LOCKSTEP_MIN_TRIALS = 6

#: Share of a lockstep batch over several networks left running when the
#: batch stops and reruns those trials per trial.  Each trial routes its
#: own network there, so a few trials often run for several times the
#: steps of the rest, and a tick costs about the same at any width: on 32
#: unpinned ``deep_random`` trials, the ticks of the last one or two live
#: trials took about half of the batch's step loop.
LOCKSTEP_TAIL_SHARE = 1 / 16

#: Spec backends the lockstep kernel can execute (each is also the name of
#: its kernel mode).
_LOCKSTEP_BACKENDS = ("frontier", "naive")

#: Backend params that set up a whole lockstep batch.  Every other
#: frontier param only shapes one trial's ``AlgorithmParams``, which the
#: kernel takes per trial, so it does not split a group.
_KERNEL_PARAMS = (
    "audit",
    "audit_congestion_bound",
    "condition_sets",
    "fast_forward",
    "max_steps",
)


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
    num_items: int, workers: int, per_item_sec: Optional[float] = None
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
        by_duration = math.ceil(MIN_CHUNK_SEC / per_item_sec)
        per_worker_cap = max(1, math.ceil(num_items / workers))
        size = max(size, min(by_duration, per_worker_cap))
        size = min(size, max(1, int(MAX_CHUNK_SEC / per_item_sec)))
    return min(size, MAX_CHUNK_ITEMS)


def should_use_pool(num_trials: int, per_trial_sec: float, workers: int) -> bool:
    """The serial-fallback boundary of the adaptive dispatcher.

    Pool dispatch is worth it only when the projected wall-clock saving of
    fanning ``num_trials`` across ``workers`` processes exceeds the pool's
    spin-up cost (:data:`POOL_SPINUP_SEC`) with a safety margin.  Small or
    cheap batches therefore stay serial — never slower than a plain loop.
    """
    if workers <= 1 or num_trials <= 1:
        return False
    serial_sec = num_trials * max(per_trial_sec, 0.0)
    projected_saving = serial_sec * (1.0 - 1.0 / workers)
    return projected_saving > POOL_SPINUP_SEC * POOL_ADVANTAGE_MARGIN


class TrialExecutor:
    """Executes specs with warm scenario reuse; one per process.

    Bundles the per-process execution state — the scenario warm cache, the
    optional on-disk result cache, and the telemetry flag — so the same
    code path serves the parent (serial and probe execution) and every
    pool worker.  ``cache_root`` is a result-cache directory or a
    :class:`~repro.scenarios.ResultCache`; ``scenarios`` may pass the
    :class:`~repro.scenarios.ScenarioCache` to build problems in (a new
    one by default).  The executor owns the result-cache I/O: each call of
    :meth:`run_chunk`, :meth:`run_groups` or :meth:`run_specs` looks each
    spec up once and stores each miss once.
    """

    def __init__(
        self,
        cache_root=None,
        telemetry: bool = False,
        scenarios: Optional[ScenarioCache] = None,
        lockstep: bool = True,
    ) -> None:
        root = _cache_root(cache_root)
        self.cache = ResultCache(root) if root is not None else None
        self.telemetry = telemetry
        self.scenarios = scenarios if scenarios is not None else ScenarioCache()
        self.lockstep = lockstep

    def run(self, spec):
        """Execute one spec per trial, returning a data-only record (no
        problem).  It does no result-cache I/O: the group that runs the
        spec (:meth:`run_chunk`) does."""
        from ..scenarios import run_trial

        record = run_trial(spec, telemetry=self.telemetry, warm=self.scenarios)
        # Sweep records are plain data: the materialized problem is shared
        # with the warm cache and must not ride back across process
        # boundaries (pickling it per trial is what made the old pool 5x
        # slower than serial).
        record.problem = None
        return record

    def run_specs(
        self, specs: Sequence, workers: int = 1, emit: Optional[Callable] = None
    ) -> List:
        """Execute ``specs`` on up to ``workers`` processes, records in spec
        order, passed to ``emit`` as they arrive (none kept) or returned.

        ``workers`` is clamped to the CPUs this process may use.  With more
        than one, whole groups (:meth:`groups`) run in the parent until at
        least :data:`LOCKSTEP_MIN_TRIALS` trials ran, to estimate the
        per-trial cost; the rest then either runs here too
        (:func:`should_use_pool` says the batch is too small to amortize
        pool spin-up) or is fanned across a worker pool in duration-sized
        chunks (:func:`default_chunksize`) that never cut a lockstep group
        below :data:`LOCKSTEP_MIN_TRIALS` (:func:`_chunk_groups`).  So at
        most :data:`LOCKSTEP_MAX_TRIALS` specs of one group key are one
        group, all run by the probe: no pool starts for them.
        """
        records: List = []
        if emit is None:
            emit = records.append
        specs = list(specs)
        workers = min(resolve_workers(workers), usable_cpus())
        if workers <= 1 or len(specs) <= 1:
            self.run_chunk(specs, emit)
            return records
        groups = self.groups(specs)
        # Probe: run whole groups in the parent until at least
        # LOCKSTEP_MIN_TRIALS specs ran, time them, and only fork when the
        # rest amortizes pool spin-up.  No group is cut, so the probe runs
        # each group on the kernel the rest of the batch would.
        ran = taken = 0
        start = perf_counter()
        while taken < len(groups) and ran < LOCKSTEP_MIN_TRIALS:
            ran += len(groups[taken][1])
            taken += 1
        self.run_groups(groups[:taken], emit)
        per_trial = (perf_counter() - start) / ran
        groups = groups[taken:]
        remaining = sum(len(group) for _, group in groups)
        if not remaining or not should_use_pool(remaining, per_trial, workers):
            self.run_groups(groups, emit)
            return records

        from concurrent.futures import ProcessPoolExecutor

        chunks = _chunk_groups(
            groups, default_chunksize(remaining, workers, per_item_sec=per_trial)
        )
        root = self.cache.root if self.cache is not None else None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(root, self.telemetry, self.lockstep),
        ) as pool:
            # chunksize=1: each mapped item is already a chunk of groups.
            for chunk_records in pool.map(_run_chunk, chunks):
                for record in chunk_records:
                    emit(record)
        return records

    # --------------------------------------------------- lockstep batching

    def _group_key(self, spec):
        """Lockstep grouping key for ``spec``, or None when ineligible.

        Specs with equal keys build the same topology, workload and
        selector with the same params — only the component seeds may
        differ — and run under the same backend and batch-wide
        :data:`_KERNEL_PARAMS`, so the stacked kernel can advance them in
        one set of arrays: a fixed-problem sweep shares one problem, an
        instance sweep gives each trial its own (over one network, or
        over a union of one network per topology seed, as for
        ``random_leveled``), and the tuner's invariant gate gives each
        trial its own schedule parameters.  The key reads the spec alone;
        nothing is built to compute it.  Telemetry counters and invariant checks do not split
        groups: the kernel computes them itself.  Trials needing
        per-trial machinery peel off to :meth:`run`: an ambient telemetry
        or trace session (the lockstep kernel carries no per-event
        observers), arrival schedules, or non-lockstep backends.  An
        eligible key only makes the spec a candidate:
        :meth:`_run_group` still runs trials per trial when fewer than
        :data:`LOCKSTEP_MIN_TRIALS` of them miss the disk cache, or form a
        run of equal packet counts and depths.
        """
        if (
            not self.lockstep
            or spec.backend not in _LOCKSTEP_BACKENDS
            or spec.arrival
        ):
            return None
        from ..telemetry.context import current_session

        if current_session() is not None:
            return None
        return (
            spec.topology,
            _unseeded(spec.topology_params),
            spec.workload,
            _unseeded(spec.workload_params),
            spec.selector,
            _unseeded(spec.selector_params),
            spec.backend,
            json.dumps(
                {
                    k: v
                    for k, v in spec.backend_params.items()
                    if k in _KERNEL_PARAMS
                },
                sort_keys=True,
            ),
        )

    def run_chunk(
        self, specs: Sequence, emit: Optional[Callable] = None
    ) -> List:
        """Execute a chunk of specs in order, lockstepping where possible.

        Consecutive specs sharing a :meth:`_group_key` (a Monte Carlo run
        over one topology, on one problem or one per trial) form a group of
        up to :data:`LOCKSTEP_MAX_TRIALS` trials, handed to
        :meth:`_run_group`; every ineligible spec is a group of its own,
        run by the ordinary per-trial :meth:`run`.  Records come back in
        spec order and are byte-identical to a per-trial loop — the
        kernel's per-trial RNG streams replay the serial draws exactly
        (pinned by ``tests/test_engine_lockstep.py``).  With ``emit``, each
        record is passed to ``emit`` as soon as its kernel batch ends and
        none is kept: the returned list is empty.
        """
        return self.run_groups(self.groups(specs), emit)

    def run_groups(
        self, groups: Sequence, emit: Optional[Callable] = None
    ) -> List:
        """:meth:`run_chunk` over groups that :meth:`groups` already cut."""
        records: List = []
        if emit is None:
            emit = records.append
        for key, group in groups:
            self._run_group(key, group, emit)
        return records

    def groups(self, specs: Sequence) -> List:
        """``specs`` cut into the groups :meth:`run_chunk` runs, in order.

        Each item is ``(key, specs)``: a run of consecutive specs sharing
        a :meth:`_group_key`, of at most :data:`LOCKSTEP_MAX_TRIALS`, or
        ``(None, [spec])`` for a spec that cannot lockstep.
        """
        specs = list(specs)
        keys = [self._group_key(spec) for spec in specs]
        out: List = []
        i, n = 0, len(specs)
        while i < n:
            key = keys[i]
            j = i + 1
            while (
                key is not None
                and j < n
                and j - i < LOCKSTEP_MAX_TRIALS
                and keys[j] == key
            ):
                j += 1
            out.append((key, specs[i:j]))
            i = j
        return out

    def _run_group(self, key, group: Sequence, emit: Callable) -> None:
        """Run one group, passing its records to ``emit`` in spec order.

        This is the group's one result-cache pass: each spec is looked up
        once, and hits come back as :func:`~repro.scenarios.run_cached`
        returns them; each miss is stored once, with the ``timings`` and
        ``audit`` its record carries, whichever kernel ran it.  A group
        that cannot lockstep (``key`` None), or has fewer than
        :data:`LOCKSTEP_MIN_TRIALS` misses, runs its misses through the
        per-trial :meth:`run`, where the reference engine is the faster
        kernel, and nothing is built for them here.  Otherwise the misses'
        problems are built in order and the misses cut into kernel
        batches: consecutive trials with equal packet counts and network
        depths, at most :data:`LOCKSTEP_MAX_SLOTS` slots (trials times
        packets) and at least :data:`LOCKSTEP_MIN_TRIALS` trials each.  A
        full batch is one lockstep run; a shorter piece goes per trial.
        Each batch's records reach ``emit`` (after the hits before them)
        before the next batch's problems are built, so a group holds one
        batch of results at a time.  With telemetry on, a batch attaches
        each trial's counters to its result; it has no per-trial
        wall-clock spans, so its records (and cache entries) carry no
        ``timings``.  Audited specs get each trial's invariant report on
        ``audit``, as the per-trial path gives them.
        """
        from ..scenarios.dispatch import load_cached_run

        cache = self.cache
        slots = [
            load_cached_run(cache, spec) if cache is not None else None
            for spec in group
        ]
        misses = [k for k, slot in enumerate(slots) if slot is None]
        emitted = 0

        def fill(ks, records) -> None:
            # Store each new record, then emit every slot up to the first
            # one still running; an emitted slot is dropped so the group
            # keeps no finished record.
            nonlocal emitted
            for k, record in zip(ks, records):
                if cache is not None:
                    cache.store(
                        record.spec,
                        record.result,
                        timings=record.timings,
                        audit=record.audit,
                    )
                slots[k] = record
            while emitted < len(slots) and slots[emitted] is not None:
                record, slots[emitted] = slots[emitted], None
                emitted += 1
                emit(record)

        def per_trial(ks) -> None:
            for k in ks:
                fill((k,), (self.run(group[k]),))

        fill((), ())
        if key is None or len(misses) < LOCKSTEP_MIN_TRIALS:
            per_trial(misses)
            return

        def flush(ks, problems) -> None:
            if len(ks) < LOCKSTEP_MIN_TRIALS:
                per_trial(ks)
            else:
                fill(ks, self._run_batch([group[k] for k in ks], problems))

        built = self._problems(group[k] for k in misses)
        ks: List[int] = []
        problems: List = []
        shape, cap = None, 0
        for k in misses:
            if ks and len(ks) == cap:
                # A full batch runs before the next problem is built.
                flush(ks, problems)
                ks, problems = [], []
            problem = next(built)
            if ks and (problem.num_packets, problem.net.depth) != shape:
                flush(ks, problems)
                ks, problems = [], []
            if not ks:
                shape = (problem.num_packets, problem.net.depth)
                cap = max(
                    LOCKSTEP_MIN_TRIALS,
                    LOCKSTEP_MAX_SLOTS // max(1, problem.num_packets),
                )
            ks.append(k)
            problems.append(problem)
        flush(ks, problems)

    def _problems(self, specs: Iterable) -> Iterator:
        """Each spec's routing problem from the warm cache, in order,
        fetched as it is drawn: once per run of consecutive specs of one
        scenario."""
        key = problem = None
        for spec in specs:
            # The group key fixes every other scenario field, so the
            # component seeds name the scenario within the group.
            seeds = (
                spec.topology_seed(), spec.workload_seed(), spec.selector_seed()
            )
            if seeds != key:
                problem = self.scenarios.problem_for(spec)
                key = seeds
            yield problem

    def _run_batch(self, specs, problems) -> List:
        """One lockstep batch, spec ``i`` routing ``problems[i]``.

        A batch over several networks stops once its stragglers are no
        more than :data:`LOCKSTEP_TAIL_SHARE` of it; they rerun here per
        trial, and :meth:`_run_group` stores them with the rest.
        """
        from ..scenarios.dispatch import ScenarioRun

        first = specs[0]
        seeds = [spec.seed for spec in specs]
        tag = f"lockstep[w={len(seeds)}]"
        tail = 0
        if len({id(problem.net) for problem in problems}) > 1:
            tail = int(len(specs) * LOCKSTEP_TAIL_SHARE)
        audits = [None] * len(specs)
        if first.backend == "frontier":
            from .runner import run_frontier_trials_lockstep

            kernel = first.backend_params
            records = run_frontier_trials_lockstep(
                problems,
                seeds,
                condition_sets=bool(kernel.get("condition_sets", False)),
                fast_forward=bool(kernel.get("fast_forward", True)),
                max_steps=kernel.get("max_steps"),
                telemetry=self.telemetry,
                audit=bool(kernel.get("audit", False)),
                audit_congestion_bound=kernel.get("audit_congestion_bound"),
                params=_trial_params(specs, problems),
                tail=tail,
            )
            results = [rec.result if rec else None for rec in records]
            audits = [rec.audit if rec else None for rec in records]
        else:
            from .runner import run_naive_trials_lockstep

            explicit = first.backend_params.get("max_steps")
            results = run_naive_trials_lockstep(
                problems,
                seeds,
                int(explicit) if explicit is not None else None,
                telemetry=self.telemetry,
                tail=tail,
            )
        return [
            ScenarioRun(spec=spec, result=result, audit=audit, executor=tag)
            if result is not None
            else self.run(spec)
            for spec, result, audit in zip(specs, results, audits)
        ]


def _trial_params(specs, problems) -> List:
    """Each frontier spec's :class:`~repro.core.AlgorithmParams`, resolved
    from its non-kernel backend params once per distinct (problem,
    params) pair."""
    from .runner import resolve_trial_params

    made: dict = {}
    out = []
    for spec, problem in zip(specs, problems):
        kwargs = {
            k: v
            for k, v in spec.backend_params.items()
            if k not in _KERNEL_PARAMS
        }
        key = (id(problem), json.dumps(kwargs, sort_keys=True))
        params = made.get(key)
        if params is None:
            params = made[key] = resolve_trial_params(problem, **kwargs)
        out.append(params)
    return out


def _chunk_groups(groups: Sequence, size: int) -> List[List]:
    """Pool chunks of about ``size`` specs that keep lockstep batches whole.

    Each chunk is a list of ``(key, specs)`` groups, cut once here and run
    as they are by :meth:`TrialExecutor.run_groups`.  A group of at least
    :data:`LOCKSTEP_MIN_TRIALS` specs that can lockstep is its own chunk,
    or is split into near-equal chunks of at least that many specs when it
    is larger than ``size``; the other groups (single specs and narrower
    groups, which run per trial either way) are packed together up to
    ``size`` specs.
    """
    chunks: List[List] = []
    packed: List = []
    packed_specs = 0
    for key, group in groups:
        if key is None or len(group) < LOCKSTEP_MIN_TRIALS:
            packed.append((key, group))
            packed_specs += len(group)
            if packed_specs >= size:
                chunks.append(packed)
                packed, packed_specs = [], 0
            continue
        if packed:
            chunks.append(packed)
            packed, packed_specs = [], 0
        parts = max(
            1,
            min(
                math.ceil(len(group) / size),
                len(group) // LOCKSTEP_MIN_TRIALS,
            ),
        )
        chunks.extend(
            [(key, group[k * len(group) // parts:(k + 1) * len(group) // parts])]
            for k in range(parts)
        )
    if packed:
        chunks.append(packed)
    return chunks


def _unseeded(params) -> str:
    """Canonical JSON of component params without their ``seed``."""
    return json.dumps(
        {k: v for k, v in params.items() if k != "seed"}, sort_keys=True
    )


# ------------------------------------------------------- pool worker plumbing
#
# Module-level state + functions (not closures) so the pool can pickle the
# chunk task; the initializer runs once per worker process.

_WORKER: Optional[TrialExecutor] = None


def _init_worker(
    cache_root: Optional[pathlib.Path], telemetry: bool, lockstep: bool
) -> None:
    """Pool initializer: pre-import the pipeline, set up per-worker state."""
    global _WORKER
    # Importing the scenario package populates all four component
    # registries; the runner import pulls in the frontier algorithm stack.
    # Under the spawn start method this moves the entire import cost out of
    # the first chunk; under fork it is a no-op revalidation.
    import repro.experiments.runner  # noqa: F401
    import repro.scenarios  # noqa: F401

    _WORKER = TrialExecutor(cache_root, telemetry=telemetry, lockstep=lockstep)


def _run_chunk(chunk: Sequence) -> List:
    """Execute one chunk of ``(key, specs)`` groups in a pool worker."""
    return _WORKER.run_groups(chunk)


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
    cache=None,
    telemetry: bool = False,
    lockstep: bool = True,
    emit: Optional[Callable] = None,
):
    """Run a list of :class:`~repro.scenarios.RunSpec`, records in spec order.

    The one sweep primitive: one :class:`TrialExecutor` runs the specs on
    up to ``workers`` processes (:meth:`TrialExecutor.run_specs`), backed
    by the on-disk result cache when ``cache`` names one (a directory or a
    :class:`~repro.scenarios.ResultCache`).  Because a spec's outcome is a
    pure function of its content, every worker count returns
    byte-identical records.  Specs are plain data, so they pickle across
    the pool by construction.  Trials sharing a scenario reuse one
    materialized problem per process.  Records are data-only:
    ``record.problem`` is ``None`` (the build lives in the warm cache, not
    on the record), so sweeps never pickle networks back from workers.

    ``telemetry=True`` gives every record ``result.telemetry`` counters,
    ready for :func:`repro.telemetry.aggregate_counters`.  Per-trial runs
    take them from their own telemetry session and also attach pipeline
    ``timings``; lockstep groups compute byte-equal counters in the kernel
    and attach no ``timings`` (a batch has no per-trial spans).

    Without ``emit`` the records are returned as a list.  With it, each
    record is passed to ``emit(record)`` in the parent, in spec order, and
    *not* retained; the return value is an empty list, so peak memory is
    one kernel batch of records in the parent (one chunk under the pool),
    independent of ``len(specs)``.  The sweep store (:mod:`repro.sweeps`)
    runs every shard this way.

    Consecutive specs that differ only in seeds — fixed-problem Monte
    Carlo batches and unpinned (instance) sweeps, including those over
    ``random_leveled``, whose batch routes over the disjoint union of one
    network per seed — execute on the lockstep stacked kernel, in batches
    of at least :data:`LOCKSTEP_MIN_TRIALS` disk-cache misses with equal
    packet counts and network depths and at most
    :data:`LOCKSTEP_MAX_SLOTS` trial-packet slots (groups of up to
    :data:`LOCKSTEP_MAX_TRIALS` specs), telemetry or not — process-level
    parallelism multiplies lockstep width instead of replacing it.
    Narrower groups run per trial on the reference engine.
    ``lockstep=False`` forces the per-trial path everywhere (benchmarks use
    it to measure the kernel's speedup; results are byte-identical either
    way — see :meth:`TrialExecutor.run_chunk`).
    """
    executor = TrialExecutor(cache, telemetry=telemetry, lockstep=lockstep)
    return executor.run_specs(specs, workers, emit)
