"""Traffic generation and streaming execution for dynamic workloads.

The workload-generator / switch-model split: injection processes
(:mod:`~repro.traffic.sources`) are independent of routers and engines,
arrival *schedules* (:mod:`~repro.traffic.schedule`) are the materialized
form both engines gate eligibility on, materialization
(:mod:`~repro.traffic.materialize`) turns arrivals into cacheable routing
problems, the stream driver (:mod:`~repro.traffic.stream`) runs an
open-loop source against an engine with bounded memory, and
:mod:`~repro.traffic.latency` summarizes a finished run's per-packet
latencies (experiment T9's stability table).
"""

from .latency import DynamicStats, dynamic_stats
from .materialize import offered_load, problem_from_arrivals
from .schedule import ArrivalSchedule
from .sources import (
    Arrival,
    BatchSource,
    BernoulliSource,
    InjectionSource,
    PoissonSource,
    TraceSource,
    collect_arrivals,
)
from .stream import StreamSummary, make_stream_router, run_stream

__all__ = [
    "Arrival",
    "ArrivalSchedule",
    "BatchSource",
    "BernoulliSource",
    "DynamicStats",
    "InjectionSource",
    "PoissonSource",
    "TraceSource",
    "StreamSummary",
    "collect_arrivals",
    "dynamic_stats",
    "make_stream_router",
    "offered_load",
    "problem_from_arrivals",
    "run_stream",
]
