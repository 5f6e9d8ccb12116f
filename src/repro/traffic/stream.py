"""Open-loop streaming execution: feed an injection source into an engine.

The batch pipeline materializes every packet up front; a long-running
service cannot.  :func:`run_stream` starts from an *empty* multi-source
problem and drives the reference engine step by step, admitting packets as
the :class:`~repro.traffic.InjectionSource` produces them
(:meth:`~repro.sim.Engine.admit`) and retiring them the step after
absorption (:meth:`~repro.sim.Engine.retire`) so packet slots are
recycled.  Memory is bounded by the number of packets in flight — never by
the total injected — which is what lets ``repro serve`` sustain an
unbounded Bernoulli stream.

Admission control is a plain cap: when ``max_in_flight`` packets are live,
further arrivals are *dropped* (recorded, not queued — the bufferless
model has nowhere to queue them).  This keeps the deflection slot matcher
away from its capacity limit under overload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..baselines import GreedyHotPotatoRouter, NaivePathRouter
from ..errors import ParameterError
from ..net import LeveledNetwork
from ..paths import RoutingProblem, random_monotone_path
from ..rng import RngLike, make_rng
from ..sim import Engine
from ..telemetry.live import WindowedMetrics
from .sources import InjectionSource


@dataclass
class StreamSummary:
    """Counters of one streaming run (all O(1) state, no per-packet lists)."""

    steps: int
    arrivals: int
    admitted: int
    delivered: int
    dropped: int
    peak_in_flight: int
    #: length of the engine's packet table at the end — stays at the peak
    #: in-flight watermark thanks to slot recycling, evidence the run never
    #: accumulated per-packet history
    packet_slots: int


def make_stream_router(kind: str, seed: RngLike = None):
    """Router factory for streaming runs (``naive`` or ``greedy``)."""
    if kind == "naive":
        return NaivePathRouter()
    if kind == "greedy":
        return GreedyHotPotatoRouter(seed=seed)
    raise ParameterError(
        f"unknown stream router {kind!r}; expected 'naive' or 'greedy'"
    )


def run_stream(
    net: LeveledNetwork,
    source: InjectionSource,
    router,
    *,
    max_steps: int,
    metrics: Optional[WindowedMetrics] = None,
    path_seed: RngLike = None,
    engine_seed: RngLike = None,
    max_in_flight: Optional[int] = None,
) -> StreamSummary:
    """Drive ``source`` through an engine for up to ``max_steps`` steps.

    Stops early once the source is exhausted (finite ``horizon``) and the
    network has drained.  ``metrics``, when given, receives the driver
    callbacks (arrivals, drops) and each step's tallies, read off the engine
    after the step; its sink sees one window dict per completed window while
    the run is in flight.  The driver registers no engine observer, so an
    untraced stream builds no trace events.
    """
    if max_steps < 1:
        raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
    problem = RoutingProblem(net, [], allow_multi_source=True)
    engine = Engine(problem, router, seed=engine_seed)
    path_rng = make_rng(path_seed)

    absorbed = engine.last_absorbed

    horizon = source.horizon
    arrivals = admitted = delivered = dropped = 0
    peak = 0
    t = 0
    while t < max_steps:
        exhausted = horizon is not None and t >= horizon
        if not exhausted:
            for a in source.arrivals_at(t):
                arrivals += 1
                in_flight = engine.num_active + len(engine.eligible)
                if max_in_flight is not None and in_flight >= max_in_flight:
                    dropped += 1
                    if metrics is not None:
                        metrics.note_drop(t)
                    continue
                path = random_monotone_path(
                    net, a.source, a.destination, path_rng
                )
                pid = engine.admit(a.source, a.destination, path)
                admitted += 1
                if metrics is not None:
                    metrics.note_arrival(pid, t)
        in_flight = engine.num_active + len(engine.eligible)
        if in_flight > peak:
            peak = in_flight
        if exhausted and not in_flight:
            break  # source done, network drained
        active_before = engine.num_active
        unsafe_before = engine.unsafe_deflections
        engine.step()
        if absorbed:
            delivered += len(absorbed)
            for pid in absorbed:
                engine.retire(pid)
        if metrics is not None:
            num_active = engine.num_active
            metrics.end_step(
                t,
                num_active + len(engine.eligible),
                injected=num_active + len(absorbed) - active_before,
                absorbed=absorbed,
                deflections=engine.last_deflections,
                unsafe=engine.unsafe_deflections - unsafe_before,
            )
        t = engine.t
    if metrics is not None:
        metrics.close(t - 1)
    return StreamSummary(
        steps=t,
        arrivals=arrivals,
        admitted=admitted,
        delivered=delivered,
        dropped=dropped,
        peak_in_flight=peak,
        packet_slots=len(engine.packets),
    )


__all__ = ["StreamSummary", "make_stream_router", "run_stream"]
