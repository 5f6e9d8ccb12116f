"""The work-stealing sweep driver: manifest in, segments + aggregate out.

:func:`run_sweep` walks the manifest's shards in order and, for each one:

1. **skips** it when its finalized segment already exists (a previous
   invocation — or another host — finished it);
2. **claims** it via an atomic lease file (losing the race means another
   worker owns it: move on, that is the work-stealing schedule);
3. **resumes** its in-progress part file from the last valid record, so a
   killed sweep re-runs only the missing suffix;
4. **gathers** it with the next pending shards until their remaining
   trials fill one executor group (:data:`~repro.experiments.batch.
   LOCKSTEP_MAX_TRIALS`), so small shards still run as wide lockstep
   batches;
5. **executes** the gathered trials through the walk's one trial
   executor (:meth:`~repro.experiments.TrialExecutor.run_specs`) in
   streaming mode — each record is appended to its own shard's segment
   the moment it arrives, never accumulated, and folded into the live
   aggregate;
6. **finalizes** each shard atomically as soon as its last record is
   appended (from the writer's own count and bytes), and releases its
   lease.

When the walk ends with every shard finalized, :func:`run_sweep`
completes the live aggregate by reading back only the records this
invocation did not write (shards already complete, resumed prefixes,
other workers' shards; :func:`~repro.sweeps.aggregate.aggregate_store`),
writes it, and compacts the segments; otherwise it reports what remains (another invocation will
finish, aggregate and compact).

Memory is bounded by the spec lists of the gathered shards (one shard,
or about one executor group of small ones), one kernel batch of records,
and the fixed-size aggregate sketches — independent of the manifest's
trial count.  Determinism: every record is a pure function of its spec,
so worker count, shard claim order, resume points, and host all cancel
out of the stored bytes (the per-shard byte-identity guarantee).
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..telemetry.progress import ProgressSink
from ..telemetry.timing import TimingSpans
from .aggregate import StreamingAggregate, aggregate_store, render_aggregate
from .lease import DEFAULT_STALE_AFTER_SEC, LeaseManager, ShardLease
from .manifest import SweepManifest
from .store import ShardWriter, SweepStore

PathLike = Union[str, pathlib.Path]

#: Lease heartbeat cadence, in records appended.
LEASE_HEARTBEAT_EVERY = 64


class SweepHeartbeat:
    """JSONL progress heartbeat for long sweeps (the ``--progress`` sink).

    Emits one ``sweep_heartbeat`` record at most every ``interval_sec``
    (clocked on the telemetry layer's :class:`~repro.telemetry.timing.
    TimingSpans` accumulators), so a million-trial sweep is observable —
    trials done, trials/sec, ETA, cache hits — without tracing anything.
    ``sink`` is a :class:`~repro.telemetry.ProgressSink` target: a
    callable, a path (appended), ``"-"`` (stderr) or ``None``.
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
        """Account trials already on disk (resumed or other workers')."""
        self.completed_trials += int(count)

    def maybe_emit(self, shard: Optional[int] = None) -> None:
        now = perf_counter()
        if now - self._last_emit >= self.interval_sec:
            self.emit(shard=shard)

    def emit(self, shard: Optional[int] = None, final: bool = False) -> None:
        if not self._sink.enabled:
            return
        now = perf_counter()
        elapsed = now - self._started
        rate = self.executed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.completed_trials)
        record = {
            "kind": "sweep_heartbeat",
            "done": self.completed_trials,
            "executed": self.executed,
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
    claiming.  ``cache``
    names a :class:`~repro.scenarios.ResultCache` (or its directory) for
    the trial executor, so re-running a manifest whose results are cached
    re-emits records from disk hits instead of re-routing.  One executor,
    and so one warm scenario cache, serves the whole walk: a
    fixed-problem manifest builds its (network, geometry, paths) once, not
    once per gathered run.

    Consecutive pending shards are claimed (and resumed) until their
    remaining trials reach :data:`~repro.experiments.batch.
    LOCKSTEP_MAX_TRIALS`, then run as one batch, so small shards still
    fill a wide lockstep kernel; each shard's lease is held until that
    shard is finalized.

    Returns a :class:`SweepOutcome`; when the walk ends with every shard
    finalized, the store is compacted (unless ``compact=False``) and the
    streaming aggregate is computed and persisted to ``aggregate.json``.
    """
    from ..experiments.batch import LOCKSTEP_MAX_TRIALS, TrialExecutor

    shard_ids = list(manifest.shard_ids()) if shards is None else list(shards)
    for shard in shard_ids:
        manifest.shard_range(shard)  # raises on an id outside the manifest
    executor = TrialExecutor(cache, telemetry=telemetry, lockstep=lockstep)
    store.init()
    leases = LeaseManager(store.leases_dir, stale_after=stale_after)
    outcome = SweepOutcome(manifest_hash=manifest.manifest_hash())
    started = perf_counter()
    # Every record this invocation writes is folded here as it is
    # appended, in whatever order the walk reaches it; ``folded`` maps
    # each shard finalized here to its resumed prefix.
    live = StreamingAggregate()
    folded: Dict[int, int] = {}

    if heartbeat is not None:
        for shard in manifest.shard_ids():
            if store.shard_complete(shard):
                start, stop = manifest.shard_range(shard)
                heartbeat.note_prior_trials(stop - start)

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
                executor.run_specs(specs, workers, emit=on_record)
        finally:
            if writer is not None:
                writer.close()

    claims: List[_Claim] = []
    try:
        for shard in shard_ids:
            if store.shard_complete(shard):
                outcome.shards.append(
                    ShardOutcome(shard=shard, status="already-complete")
                )
                continue
            lease = leases.claim(shard, steal_stale=resume)
            if lease is None:
                outcome.shards.append(
                    ShardOutcome(shard=shard, status="leased-elsewhere")
                )
                continue
            # Listed before its resume, so the lease is released if that
            # resume fails.
            claim = _Claim(
                lease, manifest.shard_specs(shard), ShardOutcome(shard, "done")
            )
            claims.append(claim)
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

        outcome.complete = store.all_complete()
        if outcome.complete:
            aggregate = aggregate_store(store, live, folded)
            aggregate.cache_hits = outcome.cache_hits
            outcome.aggregate = aggregate.to_dict()
            store.write_aggregate(outcome.aggregate)
            if compact:
                store.compact()
    finally:
        # A failed claim, resume or run leaves no lease of ours behind,
        # and the progress sink is closed however the walk ends.
        for claim in claims:
            claim.lease.release()
        if heartbeat is not None:
            heartbeat.close()
    outcome.elapsed_sec = perf_counter() - started
    return outcome


def print_sweep_report(
    outcome: SweepOutcome, stream=None
) -> None:
    """Render an outcome (and its aggregate, when complete) to a stream."""
    stream = stream or sys.stdout
    print(outcome.summary(), file=stream)
    if outcome.aggregate is not None:
        print(render_aggregate(outcome.aggregate), file=stream)
