"""The scenario layer: named, serializable, cacheable experiment specs.

Every execution path in the repo — the frontier algorithm and the
deflection and buffered baselines, on batch or continuous-injection
traffic — runs through one pipeline::

    RunSpec  --build_network-->  LeveledNetwork
             --workload/selector or arrival-->  RoutingProblem
             --backend-->  RunResult

Components are resolved by name through five plugin registries
(:data:`TOPOLOGIES`, :data:`WORKLOADS`, :data:`ARRIVALS`,
:data:`PATH_SELECTORS`, :data:`BACKENDS`); a :class:`RunSpec` is frozen,
JSON-round-trippable data
with a stable content hash, so scenarios can be cataloged, shipped as
files, fanned across process pools, and memoized on disk
(:class:`ResultCache`).  See docs/architecture.md for the full picture.
"""

from .registry import (
    ARRIVALS,
    BACKENDS,
    PATH_SELECTORS,
    TOPOLOGIES,
    WORKLOADS,
    Registry,
    UnknownNameError,
)
from .spec import RunSpec, load_spec, save_spec
from .dispatch import (
    ScenarioRun,
    build_network,
    build_problem,
    run,
    run_cached,
    run_trial,
)
from .cache import CACHE_ENV_VAR, ResultCache, ScenarioCache
from . import components  # noqa: F401  (populates the registries on import)

__all__ = [
    "Registry",
    "UnknownNameError",
    "TOPOLOGIES",
    "WORKLOADS",
    "ARRIVALS",
    "PATH_SELECTORS",
    "BACKENDS",
    "RunSpec",
    "load_spec",
    "save_spec",
    "ScenarioRun",
    "build_network",
    "build_problem",
    "run",
    "run_trial",
    "run_cached",
    "ResultCache",
    "ScenarioCache",
    "CACHE_ENV_VAR",
]
