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


def run_frontier_trials_lockstep(
    problem: RoutingProblem,
    seeds: Sequence[int],
    params: Optional[AlgorithmParams] = None,
    condition_sets: bool = False,
    fast_forward: bool = True,
    max_steps: Optional[int] = None,
    geometry=None,
    **params_kwargs,
) -> List[TrialRecord]:
    """Run one frontier trial per seed on the lockstep batch kernel.

    Byte-identical, per trial, to the reference :func:`run_frontier_trial`
    with the same seed: the same RNG
    stream derivations feed one per-trial generator pair each, and the
    stacked kernel preserves every per-trial draw order — see
    :mod:`repro.sim.engine_lockstep`.  Requires numpy and a problem
    without an arrival schedule; callers peel such trials off to the
    per-trial paths.
    """
    from ..sim.engine_lockstep import LockstepEngine

    if params is None:
        params = resolve_trial_params(problem, **params_kwargs)
    set_rows = None
    if condition_sets:
        set_rows = [
            resample_until_bounded(
                problem,
                params.num_sets,
                params.set_congestion_bound,
                seed=stable_hash_seed(seed, 1),
            )
            for seed in seeds
        ]
    engine = LockstepEngine.frontier(
        problem,
        params,
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        set_rows=set_rows,
        enable_fast_forward=fast_forward,
        geometry=geometry,
    )
    budget = max_steps if max_steps is not None else params.total_steps
    results = engine.run(budget)
    return [
        TrialRecord(seed=seed, result=result)
        for seed, result in zip(seeds, results)
    ]


def run_naive_trials_lockstep(
    problem: RoutingProblem,
    seeds: Sequence[int],
    max_steps: int,
    geometry=None,
) -> List[RunResult]:
    """Run the naive baseline once per seed on the lockstep batch kernel.

    Byte-identical, per trial, to :func:`run_router_trial` with a
    ``NaivePathRouter`` factory and the same seed (the naive router draws
    no randomness of its own, so only the engine stream matters).
    """
    from ..sim.engine_lockstep import LockstepEngine

    engine = LockstepEngine.naive(
        problem,
        engine_seeds=[stable_hash_seed(seed, 5) for seed in seeds],
        geometry=geometry,
    )
    return engine.run(max_steps)


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
