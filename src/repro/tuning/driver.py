"""The study driver: successive halving over sweep-engine manifests."""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import ParameterError, ReproError
from ..scenarios import ScenarioCache
from ..sweeps import SweepHeartbeat, SweepManifest, open_store, run_sweep
from ..telemetry import ProgressSink, counters_digest
from .report import CandidateVerdict, TuningReport
from .study import TuningCandidate, TuningStudy, save_study

PathLike = Union[str, pathlib.Path]

STUDY_FILENAME = "study.json"
REPORT_FILENAME = "report.json"


class TuningProgress:
    """JSONL progress sink for a study (the ``--progress`` surface).

    Emits ``tuning_rung`` / ``tuning_candidate`` records and forwards
    the per-sweep ``sweep_heartbeat`` stream to the same sink, so one
    tail shows both the search structure and the trial throughput.
    Accepts a callable, a path (appended, one JSON object per line),
    ``"-"`` (stderr) or ``None`` (disabled): a
    :class:`~repro.telemetry.ProgressSink` target.
    """

    def __init__(
        self, sink: Union[Callable[[dict], None], PathLike, None]
    ) -> None:
        self._sink = ProgressSink(sink)
        self.records_emitted = 0

    @property
    def sink(self) -> Optional[Callable[[dict], None]]:
        """The record callable, or None when disabled (hand this to
        :class:`SweepHeartbeat`)."""
        return self._sink if self._sink.enabled else None

    def emit(self, record: dict) -> None:
        if not self._sink.enabled:
            return
        self.records_emitted += 1
        self._sink(record)

    def close(self) -> None:
        self._sink.close()


def _audit_candidates(
    scenarios, audit_specs, candidates, trials: int
) -> Dict[str, Tuple[bool, List[str]]]:
    """Run the audited probe trials of ``candidates``; verdict per key.

    ``audit_specs`` is the study's audit portfolio: the pinned base spec
    plus any ``audit_catalog`` instances, as ``(label, spec)`` pairs.
    Audited runs are cheap relative to a sweep rung and catch unsound
    parameterizations (invariant violations) before any budget is spent
    on them — the "audit gate" of docs/tuning.md.  The portfolio matters:
    a parameterization can keep the invariants on one family and break
    them on another (too little I_f margin on deeper meshes, say), and a
    preset is only shippable if the whole portfolio stays clean.

    Each probe runs the paper's algorithm under the candidate's parameters
    alone, whatever backend its portfolio spec names.  Every probe goes
    through one :meth:`TrialExecutor.run_chunk` call, problem-major, so
    each portfolio problem is one lockstep batch of
    ``len(candidates) * trials`` audited trials (``scenarios`` already
    holds the builds).  Failures list in ``(label, seed)`` order.
    """
    from ..experiments.batch import TrialExecutor

    specs = [
        dataclasses.replace(
            spec,
            backend="frontier",
            backend_params={"audit": True, **cand.params_kwargs()},
            seed=seed,
        )
        for _, spec in audit_specs
        for cand in candidates
        for seed in range(trials)
    ]
    records = iter(TrialExecutor(scenarios=scenarios).run_chunk(specs))
    failures: Dict[str, List[str]] = {cand.key(): [] for cand in candidates}
    for label, _ in audit_specs:
        for cand in candidates:
            for seed in range(trials):
                audit = next(records).audit
                if audit is not None and not audit.ok:
                    failures[cand.key()].append(
                        f"{label} seed {seed}: {audit.summary()}"
                    )
    return {key: (not found, found) for key, found in failures.items()}


def _sketch(aggregate: dict, name: str) -> dict:
    return aggregate.get(name) or {}


def run_study(
    study: TuningStudy,
    root: PathLike,
    resume: bool = False,
    workers: int = 1,
    progress: Union[Callable[[dict], None], PathLike, None] = None,
    compact: bool = True,
) -> TuningReport:
    """Execute a tuning study under ``root`` and return its report.

    Layout: ``root/study.json`` (the study, written on first run and
    verified by hash on every later one), ``root/sweeps/<manifest-hash>/``
    (one sweep store per candidate x rung — the resumable, byte-stable
    state), ``root/cache/`` (a shared result cache so later rungs re-emit
    earlier rungs' trials from disk), ``root/report.json`` (the final
    report, deterministic bytes).

    ``resume`` is handed through to :func:`~repro.sweeps.run_sweep`,
    which breaks stale shard leases and replays valid record prefixes —
    a killed study re-executes only missing trial suffixes, and the
    resulting stores are byte-identical to an uninterrupted run.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    study_path = root / STUDY_FILENAME
    if study_path.exists():
        from .study import load_study

        existing = load_study(study_path)
        if existing.study_hash() != study.study_hash():
            raise ReproError(
                f"store {root} holds a different study "
                f"({existing.study_hash()} != {study.study_hash()}); "
                f"pick a fresh --store or pass the original parameters"
            )
    else:
        save_study(study, study_path)

    pinned = study.base.with_pinned_scenario()
    # One build per portfolio problem, shared by the audit batches.
    scenarios = ScenarioCache()
    problem = scenarios.problem_for(pinned)
    congestion = problem.congestion
    dilation = problem.dilation
    c_plus_d = max(1, congestion + dilation)

    audit_specs = [(pinned.name or "base", pinned)]
    if study.audit_catalog:
        from ..experiments import catalog_spec

        for name in study.audit_catalog:
            extra = catalog_spec(name).with_pinned_scenario()
            if extra.content_hash() == pinned.content_hash():
                continue
            audit_specs.append((name, extra))

    progress = (
        progress if isinstance(progress, TuningProgress)
        else TuningProgress(progress)
    )
    report = TuningReport(
        study_hash=study.study_hash(),
        study_name=study.name or (study.base.name or ""),
        base=pinned.describe(),
        base_hash=pinned.content_hash(),
        congestion=congestion,
        dilation=dilation,
    )

    from ..experiments.runner import resolve_trial_params

    alive: List[TuningCandidate] = list(study.candidates)
    audit_results = {}
    latest: dict = {}
    try:
        for rung in range(study.rungs):
            trials = study.rung_trials(rung)
            progress.emit(
                {
                    "kind": "tuning_rung",
                    "rung": rung,
                    "trials": trials,
                    "candidates": [cand.key() for cand in alive],
                }
            )
            resolved = {}
            for cand in alive:
                try:
                    resolved[cand.key()] = resolve_trial_params(
                        problem, **cand.params_kwargs()
                    )
                except ParameterError as exc:
                    resolved[cand.key()] = exc
            unaudited = [
                cand
                for cand in alive
                if cand.key() not in audit_results
                and not isinstance(resolved[cand.key()], ParameterError)
            ]
            if unaudited and study.audit_trials:
                audit_results.update(
                    _audit_candidates(
                        scenarios, audit_specs, unaudited, study.audit_trials
                    )
                )
            verdicts: List[Tuple[CandidateVerdict, TuningCandidate]] = []
            for cand in alive:
                key = cand.key()
                params = resolved[key]
                if isinstance(params, ParameterError):
                    verdict = CandidateVerdict(
                        key=key,
                        rung=rung,
                        trials=0,
                        params=dict(cand.params_kwargs()),
                        pruned=True,
                        reason=f"invalid parameters: {params}",
                    )
                    verdicts.append((verdict, cand))
                    latest[key] = verdict
                    continue
                audit_ok, violations = audit_results.get(key, (True, []))
                verdict = CandidateVerdict(
                    key=key,
                    rung=rung,
                    trials=trials,
                    params=params.describe(),
                    audit_ok=audit_ok,
                    audit_violations=violations,
                )
                if not audit_ok:
                    verdict.pruned = True
                    verdict.reason = "invariant audit failed"
                else:
                    spec = study.candidate_spec(cand)
                    manifest = SweepManifest.from_base(
                        spec,
                        num_trials=trials,
                        shard_size=min(study.shard_size, trials),
                        pin=True,
                        name=f"{key}-rung{rung}",
                    )
                    store = open_store(root / "sweeps", manifest)
                    heartbeat = (
                        SweepHeartbeat(progress.sink, total=trials)
                        if progress.sink is not None
                        else None
                    )
                    outcome = run_sweep(
                        manifest,
                        store,
                        workers=workers,
                        resume=resume,
                        telemetry=True,
                        cache=str(root / "cache"),
                        heartbeat=heartbeat,
                        compact=compact,
                    )
                    if not outcome.complete or outcome.aggregate is None:
                        raise ReproError(
                            f"candidate {key} rung {rung} sweep incomplete "
                            f"(leases held elsewhere?); rerun with resume=True"
                        )
                    agg = outcome.aggregate
                    makespan = _sketch(agg, "makespan")
                    verdict.success_rate = agg.get("success_rate")
                    verdict.makespan_mean = makespan.get("mean")
                    verdict.makespan_p50 = makespan.get("p50")
                    verdict.makespan_p95 = makespan.get("p95")
                    if verdict.makespan_mean is not None:
                        verdict.steps_ratio = verdict.makespan_mean / c_plus_d
                    verdict.unsafe_deflections = agg.get(
                        "unsafe_deflections", 0
                    )
                    verdict.telemetry = counters_digest(agg.get("telemetry"))
                    if (
                        verdict.success_rate is None
                        or verdict.success_rate < study.success_threshold
                    ):
                        verdict.pruned = True
                        verdict.reason = (
                            f"success rate "
                            f"{(verdict.success_rate or 0.0):.1%} below "
                            f"threshold {study.success_threshold:.1%}"
                        )
                verdicts.append((verdict, cand))
                latest[key] = verdict
                progress.emit(
                    {
                        "kind": "tuning_candidate",
                        "rung": rung,
                        "candidate": key,
                        "trials": verdict.trials,
                        "success_rate": verdict.success_rate,
                        "makespan_mean": verdict.makespan_mean,
                        "steps_ratio": verdict.steps_ratio,
                        "audit_ok": verdict.audit_ok,
                        "pruned": verdict.pruned,
                        "reason": verdict.reason,
                    }
                )
            report.rounds.append([verdict for verdict, _ in verdicts])
            survivors = sorted(
                (
                    (verdict, cand)
                    for verdict, cand in verdicts
                    if not verdict.pruned
                ),
                key=lambda pair: (
                    pair[0].makespan_mean
                    if pair[0].makespan_mean is not None
                    else math.inf,
                    pair[0].params.get("total_steps", math.inf),
                    pair[0].key,
                ),
            )
            if not survivors:
                alive = []
                break
            if rung < study.rungs - 1:
                keep = max(1, math.ceil(len(survivors) / study.eta))
                survivors = survivors[:keep]
            alive = [cand for _, cand in survivors]

        finalists = [
            latest[cand.key()]
            for cand in alive
            if not latest[cand.key()].pruned
        ]
        report.winner = finalists[0] if finalists else None
        report.baseline = latest.get(TuningCandidate().key())
        progress.emit(
            {
                "kind": "tuning_done",
                "winner": report.winner.key if report.winner else None,
                "improvement": report.improvement,
            }
        )
    finally:
        progress.close()
    (root / REPORT_FILENAME).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report


def print_study_report(report: TuningReport, stream=None) -> None:
    """Render a report to a stream (stdout by default)."""
    print(report.render(), file=stream or sys.stdout)
