"""The single ``run(spec)`` entry point over all backend families.

The dispatcher materializes a :class:`~repro.scenarios.RunSpec` in stages —
topology, workload, path selection, backend — resolving each name through
its registry, and returns the same :class:`~repro.sim.RunResult` record the
legacy hand-wired call paths produced (pinned by
``tests/test_scenarios.py``).  Batch backends consume a
:class:`~repro.paths.RoutingProblem`; dynamic backends (registered with
``needs="network"``) consume the bare network and generate their own timed
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..net import LeveledNetwork
from ..paths import RoutingProblem
from ..sim import RunResult
from ..telemetry.context import current_session
from ..telemetry.timing import span
from ..workloads import Workload
from .registry import ARRIVALS, BACKENDS, PATH_SELECTORS, TOPOLOGIES, WORKLOADS
from .spec import RunSpec


@dataclass
class ScenarioRun:
    """Outcome of dispatching one spec."""

    spec: RunSpec
    result: RunResult
    #: invariant-audit report when the backend was asked to audit
    audit: Optional[object] = None
    #: the materialized problem (None for dynamic backends and cache hits)
    problem: Optional[RoutingProblem] = None
    #: whether the result came from the on-disk cache
    cached: bool = False
    #: wall-clock pipeline spans (repro.telemetry.TimingSpans.to_dict());
    #: machine-dependent, so they live here — never on the RunResult
    timings: Optional[dict] = None
    #: which execution path produced the result: "" for the ordinary
    #: per-trial dispatch (which also runs lockstep-eligible groups
    #: narrower than ``experiments.batch.LOCKSTEP_MIN_TRIALS``),
    #: ``"lockstep[w=K]"`` when the stacked batch kernel ran this trial as
    #: one of K lockstep trials.  Advisory
    #: (surfaced in sweep heartbeats) — never serialized with results,
    #: so it cannot leak into record or shard byte-identity.
    executor: str = ""

    @property
    def ok(self) -> bool:
        """Delivered everything and (if audited) kept every invariant."""
        audit_ok = self.audit is None or getattr(self.audit, "ok", True)
        return self.result.all_delivered and audit_ok


def build_network(spec: RunSpec) -> LeveledNetwork:
    """Materialize the spec's topology."""
    builder = TOPOLOGIES.get(spec.topology)
    params = dict(spec.topology_params)
    params["seed"] = spec.topology_seed()
    with span("build_network"):
        return builder(**params)


def build_problem(
    spec: RunSpec, net: Optional[LeveledNetwork] = None
) -> RoutingProblem:
    """Materialize topology + workload + paths into a routing problem."""
    if net is None:
        net = build_network(spec)
    if spec.arrival:
        return _build_arrival_problem(spec, net)
    if not spec.workload:
        raise ReproError(
            f"spec {spec.name or spec.content_hash()!r} has no workload; "
            f"only network-level backends ({_network_backend_names()}) "
            "run without one"
        )
    workload_fn = WORKLOADS.get(spec.workload)
    wparams = dict(spec.workload_params)
    wparams["seed"] = spec.workload_seed()
    with span("build_workload"):
        built = workload_fn(net, **wparams)
    if isinstance(built, RoutingProblem):
        # Adversarial workloads carry their paths; a non-trivial selector
        # would silently be ignored, so reject the combination.
        if spec.selector not in ("none", "random"):
            raise ReproError(
                f"workload {spec.workload!r} already fixes its paths; "
                f"use selector 'none' (got {spec.selector!r})"
            )
        return built
    if not isinstance(built, Workload):
        raise ReproError(
            f"workload {spec.workload!r} returned "
            f"{type(built).__name__}, expected Workload or RoutingProblem"
        )
    selector = PATH_SELECTORS.get(spec.selector)
    sparams = dict(spec.selector_params)
    sparams["seed"] = spec.selector_seed()
    with span("path_selection"):
        return selector(net, built.endpoints, **sparams)


def _build_arrival_problem(
    spec: RunSpec, net: LeveledNetwork
) -> RoutingProblem:
    """Materialize an arrival process into a schedule-carrying problem.

    The source is collected over its horizon and each packet gets a random
    monotone path drawn from the selector seed, so the problem — arrival
    times included — is a pure function of the scenario fields and runs on
    any problem-level backend (reference, frontier_vec, baselines).
    """
    from ..errors import WorkloadError
    from ..traffic import collect_arrivals, problem_from_arrivals

    if spec.selector != "random":
        raise ReproError(
            f"arrival process {spec.arrival!r} draws random monotone paths; "
            f"use selector 'random' (got {spec.selector!r})"
        )
    source_fn = ARRIVALS.get(spec.arrival)
    aparams = dict(spec.arrival_params)
    aparams["seed"] = spec.arrival_seed()
    with span("build_workload"):
        source = source_fn(net, **aparams)
        arrivals = collect_arrivals(source)
    if not arrivals:
        raise WorkloadError(
            f"arrival process {spec.arrival!r} generated no arrivals on "
            f"{net.name} (rate too low?)"
        )
    with span("path_selection"):
        problem, _ = problem_from_arrivals(
            net, arrivals, seed=spec.selector_seed()
        )
    return problem


def _network_backend_names() -> str:
    names = [
        name
        for name in BACKENDS.names()
        if getattr(BACKENDS.get(name), "needs", "problem") == "network"
    ]
    return ", ".join(names)


def _dispatch(
    spec: RunSpec, problem: Optional[RoutingProblem], warm=None
) -> ScenarioRun:
    backend = BACKENDS.get(spec.backend)
    needs = getattr(backend, "needs", "problem")
    params = dict(spec.backend_params)
    if needs == "network":
        net = warm.network_for(spec) if warm is not None else build_network(spec)
        with span("backend"):
            result, audit = backend(net, spec.seed, params)
        return ScenarioRun(spec=spec, result=result, audit=audit)
    if problem is None:
        problem = (
            warm.problem_for(spec) if warm is not None else build_problem(spec)
        )
    with span("backend"):
        result, audit = backend(problem, spec.seed, params)
    return ScenarioRun(spec=spec, result=result, audit=audit, problem=problem)


def _finalize(record: ScenarioRun, session) -> ScenarioRun:
    session.finalize_result(record.result)
    record.timings = session.timings_dict()
    return record


def run_trial(
    spec: RunSpec,
    problem: Optional[RoutingProblem] = None,
    telemetry: bool = False,
    trace_path=None,
    warm=None,
) -> ScenarioRun:
    """Dispatch one spec and return the full record (result + audit).

    ``problem`` may pass a pre-materialized :func:`build_problem` output to
    avoid rebuilding (the CLI prints the instance before running it);
    callers are responsible for it matching the spec.

    ``warm`` may pass a :class:`~repro.scenarios.cache.ScenarioCache`: the
    problem (or network) is then fetched by scenario hash and built only on
    a miss, so trials sharing a scenario amortize construction.  Results
    are byte-identical with and without a warm cache — the cache only
    deduplicates pure builds (pinned by ``tests/test_scenarios.py``).

    ``telemetry=True`` (or a ``trace_path``) runs the trial under a
    :class:`~repro.telemetry.TelemetrySession`: counters land on
    ``result.telemetry``, wall-clock spans on the record's ``timings``, and
    the event stream goes to ``trace_path`` when given.  A session already
    active in this process is reused instead (its counters span every trial
    it covers).  Build spans only appear on warm-cache misses (a hit does
    no building); event counters never differ.
    """
    ambient = current_session()
    if ambient is None and (telemetry or trace_path is not None):
        from ..telemetry.session import TelemetrySession

        with TelemetrySession(
            trace_path=trace_path, spec_hash=spec.content_hash()
        ) as session:
            return _finalize(_dispatch(spec, problem, warm), session)
    record = _dispatch(spec, problem, warm)
    if ambient is not None:
        _finalize(record, ambient)
    return record


def run(spec: RunSpec) -> RunResult:
    """Run one spec end to end; the universal execution path."""
    return run_trial(spec).result


def run_cached(
    spec: RunSpec,
    cache=None,
    telemetry: bool = False,
    trace_path=None,
    warm=None,
) -> ScenarioRun:
    """Like :func:`run_trial`, backed by an on-disk result cache.

    ``cache`` is a :class:`~repro.scenarios.cache.ResultCache`, a directory
    path, or None (the default cache location).  Audit reports and
    materialized problems are not cached; a hit returns the cached result —
    including any telemetry counters stored with it — plus the recorded
    pipeline timings, without re-running anything (``repro report`` relies
    on this).  ``warm`` passes a scenario cache through to
    :func:`run_trial` for disk misses.
    """
    from .cache import ResultCache

    if cache is None:
        cache = ResultCache.default()
    elif not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    hit = cache.load_record(spec)
    if hit is not None:
        result, timings = hit
        return ScenarioRun(spec=spec, result=result, cached=True, timings=timings)
    record = run_trial(spec, telemetry=telemetry, trace_path=trace_path, warm=warm)
    cache.store(spec, record.result, timings=record.timings)
    return record
