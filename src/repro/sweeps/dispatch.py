"""The work-stealing sweep driver: manifest in, segments + aggregate out.

:func:`run_sweep` walks the manifest's shards in order and, for each one:

1. **skips** it when its finalized segment already exists (a previous
   invocation — or another host — finished it);
2. **claims** it via an atomic lease file (losing the race means another
   worker owns it: move on, that is the work-stealing schedule);
3. **resumes** its in-progress part file from the last valid record, so a
   killed sweep re-runs only the missing suffix;
4. **executes** the remaining trials through the warm-pool batched layer
   (:func:`~repro.experiments.run_spec_trials`) in streaming mode
   — each record is appended to the shard segment and folded into the
   running aggregate the moment it arrives, never accumulated;
5. **finalizes** the segment atomically and releases the lease.

When the walk ends with every shard finalized, the driver compacts the
segments and writes the streaming aggregate; otherwise it reports what
remains (another invocation will finish and compact).

Memory is bounded by ``shard_size`` (the spec list of the active shard)
plus the fixed-size aggregate sketches — independent of the manifest's
trial count.  Determinism: every record is a pure function of its spec,
so worker count, shard claim order, resume points, and host all cancel
out of the stored bytes (the per-shard byte-identity guarantee).
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Union

from ..telemetry.timing import TimingSpans
from .aggregate import aggregate_store, render_aggregate
from .lease import DEFAULT_STALE_AFTER_SEC, LeaseManager
from .manifest import SweepManifest
from .store import SweepStore

PathLike = Union[str, pathlib.Path]

#: Lease heartbeat cadence, in records appended.
LEASE_HEARTBEAT_EVERY = 64


class SweepHeartbeat:
    """JSONL progress heartbeat for long sweeps (the ``--progress`` sink).

    Emits one ``sweep_heartbeat`` record at most every ``interval_sec``
    (clocked on the telemetry layer's :class:`~repro.telemetry.timing.
    TimingSpans` accumulators), so a million-trial sweep is observable —
    trials done, trials/sec, ETA, cache hits — without tracing anything.
    """

    def __init__(
        self,
        sink: Union[Callable[[dict], None], PathLike, None],
        total: int,
        interval_sec: float = 2.0,
    ) -> None:
        self._fh = None
        if sink is None or callable(sink):
            self._sink = sink
        else:
            self._fh = open(sink, "a", encoding="utf-8")
            self._sink = self._write_line
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

    def _write_line(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

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
        if self._sink is None:
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
        if self._fh is not None:
            self._fh.close()
            self._fh = None


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
    chunksize: Optional[int] = None,
    dispatch: str = "auto",
    lockstep: bool = True,
) -> SweepOutcome:
    """Execute (this invocation's share of) a sweep manifest.

    ``shards`` restricts the walk to explicit shard ids (cooperating
    invocations can partition by hand); the default walks every shard,
    with lease claims arbitrating overlap.  ``resume`` additionally
    breaks stale leases (crashed owners) before claiming.  ``cache``
    passes a :class:`~repro.scenarios.ResultCache` root through to the
    trial executor, so re-running a manifest whose results are cached
    re-emits records from disk hits instead of re-routing.

    Returns a :class:`SweepOutcome`; when the walk ends with every shard
    finalized, the store is compacted (unless ``compact=False``) and the
    streaming aggregate is computed and persisted to ``aggregate.json``.
    """
    from ..experiments.batch import run_spec_trials
    from ..scenarios import ScenarioCache

    # One warm scenario cache for the whole walk: fixed-problem manifests
    # build their (network, geometry, paths) once, not once per shard.
    warm = ScenarioCache()
    store.init()
    leases = LeaseManager(store.leases_dir, stale_after=stale_after)
    outcome = SweepOutcome(manifest_hash=manifest.manifest_hash())
    started = perf_counter()
    shard_ids = list(manifest.shard_ids()) if shards is None else list(shards)

    if heartbeat is not None:
        for shard in manifest.shard_ids():
            if store.shard_complete(shard):
                start, stop = manifest.shard_range(shard)
                heartbeat.note_prior_trials(stop - start)

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
        with lease:
            resumed = store.resume_shard(shard)
            specs = manifest.shard_specs(shard)
            remaining = specs[resumed:]
            if heartbeat is not None and resumed:
                heartbeat.note_prior_trials(resumed)
            executed = 0
            with store.writer(shard, start_offset=resumed) as writer:
                last_mark = perf_counter()

                def on_record(done, total, record):
                    nonlocal executed, last_mark
                    writer.append(
                        record.spec.seed,
                        record.spec.content_hash(),
                        record.result,
                    )
                    executed += 1
                    now = perf_counter()
                    if record.cached:
                        outcome.cache_hits += 1
                    if heartbeat is not None:
                        heartbeat.note_trial(
                            record.cached,
                            now - last_mark,
                            executor=getattr(record, "executor", ""),
                        )
                        heartbeat.maybe_emit(shard=shard)
                    last_mark = now
                    if executed % LEASE_HEARTBEAT_EVERY == 0:
                        lease.heartbeat()

                if remaining:
                    run_spec_trials(
                        remaining,
                        workers=workers,
                        chunksize=chunksize,
                        cache=cache,
                        telemetry=telemetry,
                        progress=on_record,
                        dispatch=dispatch,
                        collect=False,
                        lockstep=lockstep,
                        warm=warm,
                    )
            store.finalize_shard(shard)
            outcome.shards.append(
                ShardOutcome(
                    shard=shard,
                    status="done",
                    executed=executed,
                    resumed=resumed,
                )
            )
            outcome.trials_executed += executed
            outcome.trials_resumed += resumed

    outcome.complete = store.all_complete()
    if outcome.complete:
        aggregate = aggregate_store(store)
        aggregate.cache_hits = outcome.cache_hits
        outcome.aggregate = aggregate.to_dict()
        store.write_aggregate(outcome.aggregate)
        if compact:
            store.compact()
    outcome.elapsed_sec = perf_counter() - started
    if heartbeat is not None:
        heartbeat.close()
    return outcome


def print_sweep_report(
    outcome: SweepOutcome, stream=None
) -> None:
    """Render an outcome (and its aggregate, when complete) to a stream."""
    stream = stream or sys.stdout
    print(outcome.summary(), file=stream)
    if outcome.aggregate is not None:
        print(render_aggregate(outcome.aggregate), file=stream)
