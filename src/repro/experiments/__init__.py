"""Experiment harness shared by benchmarks/ and examples/.

Instances live in :mod:`repro.experiments.configs` as a catalog of named
:class:`~repro.scenarios.RunSpec` factories; every trial sweep runs through
:func:`~repro.experiments.batch.run_spec_trials`, which dispatches each
spec through the scenario layer (:mod:`repro.scenarios`).
"""

from .runner import (
    TrialRecord,
    resolve_trial_params,
    run_frontier_trial,
    run_router_trial,
    run_frontier_trials_lockstep,
    run_naive_trials_lockstep,
)
from .batch import (
    TrialExecutor,
    default_chunksize,
    resolve_workers,
    run_spec_trials,
    should_use_pool,
    usable_cpus,
)
from .configs import (
    CATALOG,
    PRESET_FAMILIES,
    derive_sweep_seeds,
    sweep_specs,
    butterfly_random_instance,
    butterfly_random_spec,
    butterfly_hotrow_instance,
    butterfly_hotrow_spec,
    catalog_spec,
    deep_random_instance,
    deep_random_spec,
    dynamic_spec,
    funnel_instance,
    funnel_spec,
    mesh_monotone_instance,
    mesh_monotone_spec,
    mesh_corner_shift_instance,
    mesh_corner_shift_spec,
    small_audit_suite,
    baseline_budget,
    BASELINE_BUDGET_FACTOR,
)

__all__ = [
    "TrialRecord",
    "resolve_trial_params",
    "run_frontier_trial",
    "run_router_trial",
    "run_frontier_trials_lockstep",
    "run_naive_trials_lockstep",
    "TrialExecutor",
    "default_chunksize",
    "resolve_workers",
    "run_spec_trials",
    "should_use_pool",
    "usable_cpus",
    "derive_sweep_seeds",
    "sweep_specs",
    "CATALOG",
    "PRESET_FAMILIES",
    "catalog_spec",
    "butterfly_random_instance",
    "butterfly_random_spec",
    "butterfly_hotrow_instance",
    "butterfly_hotrow_spec",
    "deep_random_instance",
    "deep_random_spec",
    "dynamic_spec",
    "mesh_monotone_instance",
    "mesh_monotone_spec",
    "mesh_corner_shift_instance",
    "mesh_corner_shift_spec",
    "funnel_instance",
    "funnel_spec",
    "small_audit_suite",
    "baseline_budget",
    "BASELINE_BUDGET_FACTOR",
]
