"""The trial executor: every spec of a sweep runs through here.

The paper's guarantees are probabilistic, so every experiment is a Monte
Carlo sweep over many seeded trials, and trial throughput, not single-run
step rate, bounds a sweep's wall-clock.  :class:`TrialExecutor` runs a
list of :class:`~repro.scenarios.RunSpec` in one process, in spec order,
and returns records byte-identical to a per-trial loop:

* **Warm scenarios.**  A :class:`~repro.scenarios.ScenarioCache` keyed by
  :meth:`RunSpec.scenario_hash` builds each ``(network, geometry, paths)``
  once, so trials sharing a scenario (seeds re-randomize frontier-set
  assignment and tie-breaks, never the problem; see
  :meth:`RunSpec.with_pinned_scenario`) share one build.
* **Lockstep groups.**  Consecutive specs that differ only in seeds run
  on the stacked lockstep kernel, in batches bounded by
  :data:`LOCKSTEP_MAX_SLOTS` trial-packet slots; narrower groups run per
  trial on the reference engine.
* **One result-cache pass.**  Each spec is looked up in the on-disk
  cache once, and each miss is stored once, whichever kernel ran it.

More cores come from :func:`~repro.sweeps.run_sweep`, whose walker
processes each run their own executor over whole shards of one store.

Determinism: a trial's outcome is a pure function of its spec, the warm
cache only deduplicates pure builds, and records are assembled in spec
order, so no execution choice leaks into results, telemetry counters, or
trace digests (pinned by ``tests/test_scenarios.py`` and
``tests/test_telemetry.py``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from ..scenarios import ResultCache, ScenarioCache

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


class TrialExecutor:
    """Executes specs with warm scenario reuse; one per process.

    Bundles the per-process execution state: the scenario warm cache, the
    optional on-disk result cache, and the telemetry flag.  ``cache_root``
    is a result-cache directory or a :class:`~repro.scenarios.ResultCache`;
    ``scenarios`` may pass the :class:`~repro.scenarios.ScenarioCache` to
    build problems in (a new one by default).  The executor owns the
    result-cache I/O: each call of :meth:`run_chunk` looks each spec up
    once and stores each miss once.
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

    def run(self, spec, problem=None):
        """Execute one spec per trial, returning a data-only record (no
        problem).  ``problem`` may pass the spec's routing problem when the
        caller holds it already.  It does no result-cache I/O: the group
        that runs the spec (:meth:`run_chunk`) does."""
        from ..scenarios import run_trial

        record = run_trial(
            spec, problem, telemetry=self.telemetry, warm=self.scenarios
        )
        # Sweep records are plain data: the materialized problem is shared
        # with the warm cache and stays out of the stored record.
        record.problem = None
        return record

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
        records: List = []
        if emit is None:
            emit = records.append
        for key, group in self.groups(specs):
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
        trial on the problems the batch already built, and
        :meth:`_run_group` stores them with the rest.
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
            else self.run(spec, problem)
            for spec, problem, result, audit in zip(
                specs, problems, results, audits
            )
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


def _unseeded(params) -> str:
    """Canonical JSON of component params without their ``seed``."""
    return json.dumps(
        {k: v for k, v in params.items() if k != "seed"}, sort_keys=True
    )


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
    cache=None,
    telemetry: bool = False,
    lockstep: bool = True,
    emit: Optional[Callable] = None,
):
    """Run a list of :class:`~repro.scenarios.RunSpec`, records in spec order.

    The one sweep primitive: one :class:`TrialExecutor` runs the specs in
    this process (:meth:`TrialExecutor.run_chunk`), backed by the on-disk
    result cache when ``cache`` names one (a directory or a
    :class:`~repro.scenarios.ResultCache`).  A spec's outcome is a pure
    function of its content, so records are byte-identical to a cold
    per-trial loop.  Trials sharing a scenario reuse one materialized
    problem.  Records are data-only: ``record.problem`` is ``None`` (the
    build lives in the warm cache, not on the record).  More cores come
    from :func:`~repro.sweeps.run_sweep`'s walkers, each running whole
    shards of one store.

    ``telemetry=True`` gives every record ``result.telemetry`` counters,
    ready for :func:`repro.telemetry.aggregate_counters`.  Per-trial runs
    take them from their own telemetry session and also attach pipeline
    ``timings``; lockstep groups compute byte-equal counters in the kernel
    and attach no ``timings`` (a batch has no per-trial spans).

    Without ``emit`` the records are returned as a list.  With it, each
    record is passed to ``emit(record)`` in spec order and *not* retained;
    the return value is an empty list, so peak memory is one kernel batch
    of records, independent of ``len(specs)``.  The sweep store
    (:mod:`repro.sweeps`) runs every shard this way.

    Consecutive specs that differ only in seeds — fixed-problem Monte
    Carlo batches and unpinned (instance) sweeps, including those over
    ``random_leveled``, whose batch routes over the disjoint union of one
    network per seed — execute on the lockstep stacked kernel, in batches
    of at least :data:`LOCKSTEP_MIN_TRIALS` disk-cache misses with equal
    packet counts and network depths and at most
    :data:`LOCKSTEP_MAX_SLOTS` trial-packet slots (groups of up to
    :data:`LOCKSTEP_MAX_TRIALS` specs), telemetry or not.  Narrower groups
    run per trial on the reference engine.  ``lockstep=False`` forces the
    per-trial path everywhere (benchmarks use it to measure the kernel's
    speedup; results are byte-identical either way — see
    :meth:`TrialExecutor.run_chunk`).
    """
    executor = TrialExecutor(cache, telemetry=telemetry, lockstep=lockstep)
    return executor.run_chunk(specs, emit)
