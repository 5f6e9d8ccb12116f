"""The work-stealing sweep driver: manifest in, segments + aggregate out.

:func:`run_sweep` walks the manifest's shards in order and, for each one:

1. **skips** it when its finalized segment already exists (a previous
   invocation, another walker or another host finished it);
2. **claims** it via an atomic lease file (losing the race means another
   walker owns it: move on, that is the work-stealing schedule);
3. **resumes** its in-progress part file from the last valid record, so a
   killed sweep re-runs only the missing suffix;
4. **gathers** it with the next pending shards until their remaining
   trials fill one executor group (:data:`~repro.experiments.batch.
   LOCKSTEP_MAX_TRIALS`), so small shards still run as wide lockstep
   batches;
5. **executes** the gathered trials through the walk's one trial
   executor (:meth:`~repro.experiments.TrialExecutor.run_chunk`) in
   streaming mode — each record is appended to its own shard's segment
   the moment it arrives, never accumulated, and folded into the live
   aggregate;
6. **finalizes** each shard atomically as soon as its last record is
   appended (from the writer's own count and bytes), and releases its
   lease.

``run_sweep(workers=k)`` runs this walk in up to ``k`` processes at once
(this one and its children), all over the same store; the leases keep
them apart exactly as they keep cooperating ``repro sweep`` invocations
apart.  When the walks end with every shard finalized, :func:`run_sweep`
completes the live aggregate by reading back only the records its own
walk did not write (shards already complete, resumed prefixes, other
walkers' shards; :func:`~repro.sweeps.aggregate.aggregate_store`), writes
it, and compacts the segments; otherwise it reports what remains (another
invocation will finish, aggregate and compact).

Memory is bounded, per walker, by the spec lists of the gathered shards
(one shard, or about one executor group of small ones), one kernel batch
of records, and the fixed-size aggregate sketches — independent of the
manifest's trial count.  Determinism: every record is a pure function of
its spec, so walker count, shard claim order, resume points, and host all
cancel out of the stored bytes (the per-shard byte-identity guarantee).
"""

from __future__ import annotations

import os
import pathlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry.progress import ProgressSink
from ..telemetry.timing import TimingSpans
from .aggregate import StreamingAggregate, aggregate_store, render_aggregate
from .lease import DEFAULT_STALE_AFTER_SEC, LeaseManager, ShardLease
from .manifest import SweepManifest
from .store import ShardWriter, SweepStore

PathLike = Union[str, pathlib.Path]

#: Lease heartbeat cadence, in records appended.
LEASE_HEARTBEAT_EVERY = 64

#: The :mod:`multiprocessing` start method of child walkers; None takes
#: the platform's default.  A child gets only its :class:`_WalkJob`, so
#: every method works; ``fork`` (Linux's default before Python 3.14)
#: starts one in milliseconds, where ``spawn`` pays a fresh interpreter
#: and import per sweep, and the tuner runs one sweep per rung.
WALKER_START_METHOD: Optional[str] = None


class SweepHeartbeat:
    """JSONL progress heartbeat for long sweeps (the ``--progress`` sink).

    Emits one ``sweep_heartbeat`` record at most every ``interval_sec``
    (clocked on the telemetry layer's :class:`~repro.telemetry.timing.
    TimingSpans` accumulators), so a million-trial sweep is observable —
    trials done, trials/sec, ETA, cache hits — without tracing anything.
    ``sink`` is a :class:`~repro.telemetry.ProgressSink` target: a
    callable, a path (appended), ``"-"`` (stderr) or ``None``.

    With several walkers (``run_sweep(workers=k)``), this process's
    heartbeat counts its own trials as they run, and its live lines add,
    to ``done`` and ``executed``, the trials of every shard the other
    walkers have finalized, as found on disk at each line.  So live lines
    lag the other walkers by the shards they hold open (one gathered run
    each, about :data:`~repro.experiments.batch.LOCKSTEP_MAX_TRIALS`
    trials), and count a resumed prefix of theirs as executed.  The final
    line merges every walker's own tallies (:meth:`merge`) and is exact.
    """

    def __init__(
        self,
        sink: Union[Callable[[dict], None], PathLike, None],
        total: int,
        interval_sec: float = 2.0,
    ) -> None:
        self._sink = ProgressSink(sink)
        self.total = int(total)
        self.interval_sec = float(interval_sec)
        self.spans = TimingSpans()
        self.executed = 0
        self.cache_hits = 0
        self.completed_trials = 0  # includes shards finished before us
        self.lockstep_trials = 0
        #: last execution-path tag seen ("lockstep[w=K]" or "per-trial"),
        #: so operators can read the executor mode — and the lockstep
        #: batch width — straight off the progress line
        self.executor = ""
        #: trials of shards other walkers finalized and this heartbeat
        #: does not count itself (set by :func:`run_sweep` while they run)
        self.elsewhere: Optional[Callable[[], int]] = None
        self._started = perf_counter()
        self._last_emit = self._started
        self.records_emitted = 0

    # ------------------------------------------------------------ callbacks

    def note_trial(
        self, cached: bool, trial_sec: float, executor: str = ""
    ) -> None:
        self.executed += 1
        self.completed_trials += 1
        if cached:
            self.cache_hits += 1
        if executor.startswith("lockstep"):
            self.lockstep_trials += 1
        if not cached:
            self.executor = executor or "per-trial"
        self.spans.add("trial", trial_sec)

    def note_prior_trials(self, count: int) -> None:
        """Account trials already on disk (resumed or finished before)."""
        self.completed_trials += int(count)

    def merge(self, other: "SweepHeartbeat") -> None:
        """Fold another walker's tallies into this heartbeat's."""
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.completed_trials += other.completed_trials
        self.lockstep_trials += other.lockstep_trials
        self.executor = self.executor or other.executor
        self.spans.merge(other.spans)

    def maybe_emit(self, shard: Optional[int] = None) -> None:
        now = perf_counter()
        if now - self._last_emit >= self.interval_sec:
            self.emit(shard=shard)

    def emit(self, shard: Optional[int] = None, final: bool = False) -> None:
        if not self._sink.enabled:
            return
        now = perf_counter()
        elapsed = now - self._started
        elsewhere = self.elsewhere() if self.elsewhere is not None else 0
        executed = self.executed + elsewhere
        done = self.completed_trials + elsewhere
        rate = executed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - done)
        record = {
            "kind": "sweep_heartbeat",
            "done": done,
            "executed": executed,
            "total": self.total,
            "shard": shard,
            "trials_per_sec": round(rate, 3),
            "eta_sec": round(remaining / rate, 1) if rate > 0 else None,
            "cache_hits": self.cache_hits,
            "elapsed_sec": round(elapsed, 3),
            "executor": self.executor or None,
            "lockstep_trials": self.lockstep_trials,
        }
        if final:
            record["final"] = True
            record["spans"] = self.spans.to_dict()
        self._last_emit = now
        self.records_emitted += 1
        self._sink(record)

    def close(self) -> None:
        self.emit(final=True)
        self._sink.close()


@dataclass
class ShardOutcome:
    """What happened to one shard during this invocation."""

    shard: int
    status: str  # "done" | "already-complete" | "leased-elsewhere"
    executed: int = 0
    resumed: int = 0


@dataclass
class SweepOutcome:
    """The invocation-level result of :func:`run_sweep`."""

    manifest_hash: str
    shards: List[ShardOutcome] = field(default_factory=list)
    trials_executed: int = 0
    trials_resumed: int = 0
    cache_hits: int = 0
    elapsed_sec: float = 0.0
    #: whether the whole manifest is finalized on disk (by anyone)
    complete: bool = False
    #: streaming-aggregate dict, present once complete
    aggregate: Optional[dict] = None

    @property
    def shards_done(self) -> int:
        return sum(1 for s in self.shards if s.status == "done")

    def summary(self) -> str:
        skipped = sum(
            1 for s in self.shards if s.status == "already-complete"
        )
        leased = sum(
            1 for s in self.shards if s.status == "leased-elsewhere"
        )
        parts = [
            f"{self.shards_done} shards run "
            f"({self.trials_executed} trials, "
            f"{self.trials_resumed} resumed from disk)",
        ]
        if skipped:
            parts.append(f"{skipped} already complete")
        if leased:
            parts.append(f"{leased} leased elsewhere")
        state = "complete" if self.complete else "incomplete"
        return f"sweep {state}: " + ", ".join(parts)


@dataclass
class _Claim:
    """A pending shard claimed for the next gathered run."""

    lease: ShardLease
    specs: list
    outcome: ShardOutcome

    @property
    def remaining(self) -> int:
        return len(self.specs) - self.outcome.resumed


@dataclass(frozen=True)
class _WalkJob:
    """What one walker needs, as plain picklable data, so a walker process
    starts the same way under every start method."""

    manifest: SweepManifest
    store_root: pathlib.Path
    shard_ids: Tuple[int, ...]
    cache: object
    resume: bool
    telemetry: bool
    lockstep: bool
    stale_after: float


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_sweep(
    manifest: SweepManifest,
    store: SweepStore,
    workers: int = 1,
    shards: Optional[Sequence[int]] = None,
    resume: bool = False,
    telemetry: bool = False,
    cache=None,
    heartbeat: Optional[SweepHeartbeat] = None,
    compact: bool = True,
    stale_after: float = DEFAULT_STALE_AFTER_SEC,
    lockstep: bool = True,
) -> SweepOutcome:
    """Execute (this invocation's share of) a sweep manifest.

    ``shards`` restricts the walk to explicit shard ids (cooperating
    invocations can partition by hand); the default walks every shard,
    with lease claims arbitrating overlap; an id outside the manifest
    raises :class:`~repro.errors.ReproError` before any shard is claimed.
    ``resume`` additionally breaks stale leases (crashed owners) before
    claiming.  ``cache`` names a :class:`~repro.scenarios.ResultCache` (or
    its directory) for the trial executor, so re-running a manifest whose
    results are cached re-emits records from disk hits instead of
    re-routing.  One executor, and so one warm scenario cache, serves each
    walk: a fixed-problem manifest builds its (network, geometry, paths)
    once per walker, not once per gathered run.

    ``workers`` walkers run the walk: this process and ``min(workers,
    usable CPUs, pending shards) - 1`` child processes, each claiming and
    running whole shards of the same store, as cooperating invocations do.
    Under an ambient telemetry session (whose counters and trace stay in
    this process) the walk runs here alone.  The outcome merges every
    walker's counts, so it, and the store's bytes, equal a ``workers=1``
    run's; an error in any walker reaches the caller once all have
    stopped, and no walker leaves a lease behind.

    Returns a :class:`SweepOutcome`; when the walks end with every shard
    finalized, the streaming aggregate is computed and persisted to
    ``aggregate.json`` and the store is compacted (unless
    ``compact=False``).
    """
    from ..telemetry.context import current_session

    shard_ids = list(manifest.shard_ids()) if shards is None else list(shards)
    for shard in shard_ids:
        manifest.shard_range(shard)  # raises on an id outside the manifest
    store.init()
    started = perf_counter()
    job = _WalkJob(
        manifest=manifest,
        store_root=store.root,
        shard_ids=tuple(shard_ids),
        cache=cache,
        resume=resume,
        telemetry=telemetry,
        lockstep=lockstep,
        stale_after=stale_after,
    )
    pending = sum(1 for shard in shard_ids if not store.shard_complete(shard))
    children = min(workers, usable_cpus(), pending) - 1
    if current_session() is not None:
        children = 0
    # This process's walk folds every record it writes here, in whatever
    # order it reaches them; ``folded`` maps each shard it finalized to its
    # resumed prefix.  The finish reads back the rest.
    live = StreamingAggregate()
    folded: Dict[int, int] = {}
    try:
        # Shards whose trials the heartbeat counts: those finished before
        # this run, and those this process's walk claims.
        counted = set()
        if heartbeat is not None:
            for shard in manifest.shard_ids():
                if store.shard_complete(shard):
                    counted.add(shard)
                    heartbeat.note_prior_trials(_shard_trials(manifest, shard))
        if children > 0:
            walks = _walk_with_children(
                job, children, store, heartbeat, live, folded, counted
            )
        else:
            walks = [_walk(job, store, heartbeat, live, folded)]
        outcome = _merge(walks)
        _finish(store, outcome, live, folded, compact)
    finally:
        if heartbeat is not None:
            heartbeat.close()
    outcome.elapsed_sec = perf_counter() - started
    return outcome


def _walk_with_children(
    job: _WalkJob, children, store, heartbeat, live, folded, counted
) -> List[SweepOutcome]:
    """Walk here while ``children`` processes walk the same shards.

    Each child returns its outcome and its tallies, which are merged into
    ``heartbeat`` once every walker has stopped.  Until then the
    heartbeat's live lines add the trials of shards that are finalized on
    disk but not ``counted`` here: the children's.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    manifest = job.manifest
    if heartbeat is not None:
        heartbeat.elsewhere = lambda: sum(
            _shard_trials(manifest, shard)
            for shard in manifest.shard_ids()
            if shard not in counted and store.segment_path(shard).exists()
        )
    try:
        with ProcessPoolExecutor(
            children, mp_context=multiprocessing.get_context(WALKER_START_METHOD)
        ) as pool:
            futures = [pool.submit(_child_walk, job) for _ in range(children)]
            walks = [
                _walk(job, store, heartbeat, live, folded, on_claim=counted.add)
            ]
            if heartbeat is not None and heartbeat.interval_sec > 0:
                while wait(futures, heartbeat.interval_sec).not_done:
                    heartbeat.emit()
            theirs = [future.result() for future in futures]
    finally:
        if heartbeat is not None:
            heartbeat.elsewhere = None
    for outcome, tally in theirs:
        walks.append(outcome)
        if heartbeat is not None:
            heartbeat.merge(tally)
    return walks


def _child_walk(job: _WalkJob):
    """A child walker's entry point: its outcome, and its trials tallied
    on a heartbeat without a sink."""
    tally = SweepHeartbeat(None, total=0)
    outcome = _walk(job, SweepStore(job.store_root, job.manifest), tally)
    return outcome, tally


def _shard_trials(manifest: SweepManifest, shard: int) -> int:
    start, stop = manifest.shard_range(shard)
    return stop - start


def _walk(
    job: _WalkJob,
    store: SweepStore,
    heartbeat: Optional[SweepHeartbeat],
    live: Optional[StreamingAggregate] = None,
    folded: Optional[Dict[int, int]] = None,
    on_claim: Optional[Callable[[int], None]] = None,
) -> SweepOutcome:
    """One walker's pass over ``job.shard_ids``: skip, claim, resume,
    gather, run and finalize (the module docstring's steps 1–6).

    Returns this walker's share of the outcome: a status for every shard
    it passed, and the trials it executed, resumed and found cached.  With
    ``live``, every record written is folded there and ``folded`` maps
    each shard finalized to its resumed prefix; ``on_claim`` is called
    with each shard claimed.
    """
    from ..experiments.batch import LOCKSTEP_MAX_TRIALS, TrialExecutor

    manifest = job.manifest
    executor = TrialExecutor(
        job.cache, telemetry=job.telemetry, lockstep=job.lockstep
    )
    leases = LeaseManager(store.leases_dir, stale_after=job.stale_after)
    outcome = SweepOutcome(manifest_hash=manifest.manifest_hash())

    def run_gathered(claims: List[_Claim]) -> None:
        """Run the claimed shards' remaining trials as one batch.

        Records arrive in spec order; each goes to its own shard's writer
        (one open at a time), and a shard is finalized, and its lease
        released, as soon as its last record is appended.
        """
        at = done = 0
        writer: Optional[ShardWriter] = None
        last_mark = perf_counter()

        def settle() -> None:
            # Finalize every leading claim with all its records written,
            # and open the next claim's writer.
            nonlocal at, writer
            while at < len(claims):
                claim = claims[at]
                if writer is None:
                    writer = store.writer(
                        claim.outcome.shard, start_offset=claim.outcome.resumed
                    )
                if claim.outcome.executed < claim.remaining:
                    return
                writer.close()
                store.finalize_shard(writer)
                claim.lease.release()
                if folded is not None:
                    folded[claim.outcome.shard] = claim.outcome.resumed
                outcome.trials_executed += claim.outcome.executed
                outcome.trials_resumed += claim.outcome.resumed
                writer = None
                at += 1

        def on_record(record):
            nonlocal done, last_mark
            done += 1
            claim = claims[at]
            writer.append(
                record.spec.seed,
                record.spec.content_hash(),
                record.result,
                record.audit,
            )
            if live is not None:
                live.add_result(record.result)
                if record.audit is not None:
                    live.add_audit(record.audit.ok)
            claim.outcome.executed += 1
            now = perf_counter()
            if record.cached:
                outcome.cache_hits += 1
            if heartbeat is not None:
                heartbeat.note_trial(
                    record.cached,
                    now - last_mark,
                    executor=getattr(record, "executor", ""),
                )
                heartbeat.maybe_emit(shard=claim.outcome.shard)
            last_mark = now
            if done % LEASE_HEARTBEAT_EVERY == 0:
                for held in claims[at:]:
                    held.lease.heartbeat()
            settle()

        try:
            settle()
            specs = [
                spec
                for claim in claims
                for spec in claim.specs[claim.outcome.resumed:]
            ]
            if specs:
                executor.run_chunk(specs, emit=on_record)
        finally:
            if writer is not None:
                writer.close()

    claims: List[_Claim] = []
    try:
        for shard in job.shard_ids:
            if store.shard_complete(shard):
                outcome.shards.append(
                    ShardOutcome(shard=shard, status="already-complete")
                )
                continue
            lease = leases.claim(shard, steal_stale=job.resume)
            if lease is None:
                outcome.shards.append(
                    ShardOutcome(shard=shard, status="leased-elsewhere")
                )
                continue
            if store.shard_complete(shard):
                # Another walker finalized it, and let its lease go,
                # between the check above and this claim.
                lease.release()
                outcome.shards.append(
                    ShardOutcome(shard=shard, status="already-complete")
                )
                continue
            # Listed before its resume, so the lease is released if that
            # resume fails.
            claim = _Claim(
                lease, manifest.shard_specs(shard), ShardOutcome(shard, "done")
            )
            claims.append(claim)
            if on_claim is not None:
                on_claim(shard)
            resumed = store.resume_shard(shard, claim.specs)
            claim.outcome.resumed = resumed
            if heartbeat is not None and resumed:
                heartbeat.note_prior_trials(resumed)
            outcome.shards.append(claim.outcome)
            if sum(c.remaining for c in claims) >= LOCKSTEP_MAX_TRIALS:
                run_gathered(claims)
                claims = []
        if claims:
            run_gathered(claims)
            claims = []
    finally:
        # A failed claim, resume or run leaves no lease of ours behind.
        for claim in claims:
            claim.lease.release()
    return outcome


def _merge(walks: List[SweepOutcome]) -> SweepOutcome:
    """The walkers' outcomes as one, this process's first: counts add up,
    and each shard keeps this process's status unless another walker ran
    it."""
    mine = walks[0]
    ran = {
        shard.shard: shard
        for walk in walks[1:]
        for shard in walk.shards
        if shard.status == "done"
    }
    outcome = SweepOutcome(
        manifest_hash=mine.manifest_hash,
        shards=[ran.get(shard.shard, shard) for shard in mine.shards],
    )
    for walk in walks:
        outcome.trials_executed += walk.trials_executed
        outcome.trials_resumed += walk.trials_resumed
        outcome.cache_hits += walk.cache_hits
    return outcome


def _finish(
    store: SweepStore,
    outcome: SweepOutcome,
    live: StreamingAggregate,
    folded: Dict[int, int],
    compact: bool,
) -> None:
    """Once every shard is finalized (by anyone): complete the aggregate
    by reading back the records ``live`` lacks, write it, and compact."""
    outcome.complete = store.all_complete()
    if not outcome.complete:
        return
    aggregate = aggregate_store(store, live, folded)
    aggregate.cache_hits = outcome.cache_hits
    outcome.aggregate = aggregate.to_dict()
    store.write_aggregate(outcome.aggregate)
    if compact:
        store.compact()


def print_sweep_report(
    outcome: SweepOutcome, stream=None
) -> None:
    """Render an outcome (and its aggregate, when complete) to a stream."""
    stream = stream or sys.stdout
    print(outcome.summary(), file=stream)
    if outcome.aggregate is not None:
        print(render_aggregate(outcome.aggregate), file=stream)
