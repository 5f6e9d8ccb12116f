"""Seeded multi-trial experiment runner.

Shared by the benchmark harness and the examples: builds the router for a
problem, runs it (optionally under the invariant auditor), and collects
per-trial records so benches only format tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core import (
    AlgorithmParams,
    AuditReport,
    FrontierFrameRouter,
    InvariantAuditor,
    resample_until_bounded,
)
from ..paths import RoutingProblem
from ..rng import stable_hash_seed
from ..sim import Engine, RunResult, Router


def resolve_trial_params(
    problem: RoutingProblem, **params_kwargs
) -> AlgorithmParams:
    """Build the parameterization a trial's keyword arguments describe.

    A ``preset`` key selects a named family from
    :data:`repro.core.PRESETS` (remaining kwargs override its values);
    otherwise the kwargs go straight to
    :meth:`~repro.core.AlgorithmParams.practical`.  This is the single
    funnel through which scenario ``backend_params`` become
    :class:`~repro.core.AlgorithmParams`, shared by the reference and
    lockstep trial runners.
    """
    preset = params_kwargs.pop("preset", None)
    congestion = max(1, problem.congestion)
    if preset is not None:
        return AlgorithmParams.from_preset(
            preset,
            congestion,
            problem.net.depth,
            problem.num_packets,
            **params_kwargs,
        )
    return AlgorithmParams.practical(
        congestion,
        problem.net.depth,
        problem.num_packets,
        **params_kwargs,
    )


@dataclass
class TrialRecord:
    """One routing trial."""

    seed: int
    result: RunResult
    audit: Optional[AuditReport] = None

    @property
    def ok(self) -> bool:
        """Delivered everything and (if audited) kept every invariant."""
        delivered = self.result.all_delivered
        return delivered and (self.audit is None or self.audit.ok)


def run_frontier_trial(
    problem: RoutingProblem,
    seed: int,
    params: Optional[AlgorithmParams] = None,
    audit: bool = False,
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    audit_congestion_bound: Optional[float] = None,
    **params_kwargs,
) -> TrialRecord:
    """Run the frontier-frame algorithm once on ``problem``.

    ``condition_sets`` resamples the frontier-set assignment until Lemma
    2.2's good event holds (per-set congestion within the configured bound);
    otherwise the assignment is drawn uniformly as in the paper.
    """
    if params is None:
        params = resolve_trial_params(problem, **params_kwargs)
    set_of = None
    if condition_sets:
        set_of = resample_until_bounded(
            problem,
            params.num_sets,
            params.set_congestion_bound,
            seed=stable_hash_seed(seed, 1),
        )
    router = FrontierFrameRouter(
        params, set_of=set_of, seed=stable_hash_seed(seed, 2)
    )
    engine = Engine(
        problem,
        router,
        seed=stable_hash_seed(seed, 3),
        enable_fast_forward=fast_forward,
    )
    report = None
    if audit:
        auditor = InvariantAuditor(
            router, congestion_bound=audit_congestion_bound
        )
        auditor.install(engine)
        report = auditor.report
    budget = max_steps if max_steps is not None else params.total_steps
    result = engine.run(budget)
    return TrialRecord(seed=seed, result=result, audit=report)


def _per_problem(problems: Sequence[RoutingProblem], make: Callable) -> list:
    """``make(problem)`` for each trial, computed once per distinct problem."""
    made: dict = {}
    out = []
    for problem in problems:
        key = id(problem)
        if key not in made:
            made[key] = make(problem)
        out.append(made[key])
    return out


def run_frontier_trials_lockstep(
    problems: Sequence[RoutingProblem],
    seeds: Sequence[int],
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    telemetry: bool = False,
    audit: bool = False,
    audit_congestion_bound: Optional[float] = None,
    params: Optional[Sequence[AlgorithmParams]] = None,
    tail: int = 0,
    **params_kwargs,
) -> List[Optional[TrialRecord]]:
    """Run one frontier trial per seed on the lockstep batch kernel.

    Trial ``i`` routes ``problems[i]`` with ``seeds[i]``; the problems may
    repeat (a fixed-problem batch) or differ (an instance batch, over one
    network or several), but must share one packet count and one network
    depth.  Each problem resolves its own
    parameters from ``params_kwargs`` (or ``params`` gives one
    :class:`~repro.core.AlgorithmParams` per trial) and, without
    ``max_steps``, its own step budget.  Byte-identical, per trial, to the
    reference :func:`run_frontier_trial` with the same problem, parameters
    and seed: the same RNG stream derivations feed one per-trial generator
    pair each, and the stacked kernel preserves every per-trial draw order
    — see :mod:`repro.sim.engine_lockstep`.  ``telemetry=True`` attaches
    each trial's event counters to ``result.telemetry``, equal to those of
    the reference run under a telemetry session; ``audit=True`` gives each
    record the reference auditor's :class:`~repro.core.AuditReport`.
    ``tail`` stops the batch early (see :meth:`LockstepEngine.run`); the
    trials it cut are None, for the caller to rerun per trial.
    Requires problems without arrival schedules; callers peel such trials
    off to the per-trial paths.
    """
    from ..sim.engine_lockstep import LockstepEngine

    if params is None:
        params = _per_problem(
            problems, lambda p: resolve_trial_params(p, **params_kwargs)
        )
    elif params_kwargs:
        raise TypeError("pass either params or parameter kwargs, not both")
    set_rows = None
    if condition_sets:
        set_rows = [
            resample_until_bounded(
                problem,
                prm.num_sets,
                prm.set_congestion_bound,
                seed=stable_hash_seed(seed, 1),
            )
            for problem, prm, seed in zip(problems, params, seeds)
        ]
    engine = LockstepEngine.frontier(
        problems,
        params,
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        set_rows=set_rows,
        enable_fast_forward=fast_forward,
        telemetry=telemetry,
        audit=audit,
        audit_congestion_bound=audit_congestion_bound,
    )
    budget = (
        max_steps if max_steps is not None
        else [prm.total_steps for prm in params]
    )
    results = engine.run(budget, tail=tail)
    auditor = engine.auditor
    return [
        None
        if cut
        else TrialRecord(
            seed=seed,
            result=result,
            audit=auditor.result(i) if auditor is not None else None,
        )
        for i, (seed, result, cut) in enumerate(
            zip(seeds, results, engine.cut.tolist())
        )
    ]


def run_naive_trials_lockstep(
    problems: Sequence[RoutingProblem],
    seeds: Sequence[int],
    max_steps: Optional[int] = None,
    telemetry: bool = False,
    tail: int = 0,
) -> List[Optional[RunResult]]:
    """Run the naive baseline once per seed on the lockstep batch kernel.

    Trial ``i`` routes ``problems[i]`` (one packet count and network depth
    for the batch) under ``max_steps``, or without it under its own problem's
    :func:`~repro.experiments.configs.baseline_budget`.  Byte-identical,
    per trial, to :func:`run_router_trial` with a ``NaivePathRouter``
    factory and the same problem, seed and budget (the naive router draws
    no randomness of its own, so only the engine stream matters), counters
    included when ``telemetry`` is on.  ``tail`` stops the batch early
    (see :meth:`LockstepEngine.run`); the trials it cut are None.
    """
    from ..sim.engine_lockstep import LockstepEngine

    if max_steps is None:
        from .configs import baseline_budget

        max_steps = _per_problem(problems, baseline_budget)
    engine = LockstepEngine.naive(
        problems,
        engine_seeds=[stable_hash_seed(seed, 5) for seed in seeds],
        telemetry=telemetry,
    )
    results = engine.run(max_steps, tail=tail)
    return [
        None if cut else result
        for result, cut in zip(results, engine.cut.tolist())
    ]


def run_router_trial(
    problem: RoutingProblem,
    router_factory: Callable[[int], Router],
    seed: int,
    max_steps: int,
) -> RunResult:
    """Run an arbitrary engine router once (baseline comparisons)."""
    router = router_factory(stable_hash_seed(seed, 4))
    engine = Engine(problem, router, seed=stable_hash_seed(seed, 5))
    return engine.run(max_steps)
