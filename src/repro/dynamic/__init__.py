"""Dynamic (continuous-injection) routing, after the paper's reference [9].

Arrival release now lives in the engines themselves (any backend accepts a
schedule-carrying problem), so this package is a thin compatibility layer
over :mod:`repro.traffic`: arrival-process adapters (:mod:`arrivals`),
routers that install a schedule on attach (:mod:`routers`), and
latency/stability metrics (:mod:`metrics`).  Experiment T9 sweeps the
injection rate toward the bandwidth limit and watches latency diverge —
the classic stability picture.
"""

from .arrivals import Arrival, arrivals_to_problem, bernoulli_arrivals, offered_load
from .routers import (
    DynamicGreedyRouter,
    DynamicNaiveRouter,
    router_attach,
)
from .metrics import DynamicStats, dynamic_stats

__all__ = [
    "Arrival",
    "arrivals_to_problem",
    "bernoulli_arrivals",
    "offered_load",
    "DynamicGreedyRouter",
    "DynamicNaiveRouter",
    "DynamicStats",
    "dynamic_stats",
    "router_attach",
]
