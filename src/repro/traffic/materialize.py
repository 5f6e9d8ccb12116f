"""Materialize arrivals into a schedule-carrying routing problem.

The batch pipeline (scenarios, caching, every problem-level backend) works
on :class:`~repro.paths.RoutingProblem` instances; a dynamic workload is
simply a problem whose ``arrival_schedule`` attribute carries the packets'
injection times.  The reference engine picks the schedule up at
construction, so *any* problem-level backend — the frontier algorithm, the
baselines — accepts mid-run injection without knowing where the traffic
came from.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..net import LeveledNetwork
from ..paths import PacketSpec, RoutingProblem, random_monotone_path
from ..rng import RngLike, make_rng
from .schedule import ArrivalSchedule
from .sources import Arrival


def problem_from_arrivals(
    net: LeveledNetwork,
    arrivals: Sequence[Arrival],
    seed: RngLike = None,
) -> Tuple[RoutingProblem, List[int]]:
    """Arrivals -> (multi-source problem with attached schedule, times).

    Packet ``k`` is arrival ``k``; its path is a random monotone path drawn
    per packet (one draw sequence, in arrival order).  The returned problem
    carries its :class:`ArrivalSchedule` on ``problem.arrival_schedule``.
    """
    rng = make_rng(seed)
    specs = []
    times: List[int] = []
    for k, arrival in enumerate(arrivals):
        path = random_monotone_path(net, arrival.source, arrival.destination, rng)
        specs.append(PacketSpec(k, arrival.source, arrival.destination, path))
        times.append(arrival.time)
    problem = RoutingProblem(net, specs, allow_multi_source=True)
    problem.arrival_schedule = ArrivalSchedule(times)
    return problem, times


def offered_load(
    net: LeveledNetwork, arrivals: Sequence[Arrival], horizon: int
) -> float:
    """Average offered load in packet-hops per step per unit bandwidth.

    The natural utilization measure: total requested hops divided by
    ``horizon * (forward edges)``; saturation is expected as this
    approaches the bottleneck utilization 1.
    """
    from ..errors import WorkloadError

    if horizon < 1:
        raise WorkloadError(f"horizon must be >= 1, got {horizon}")
    hops = sum(
        net.level(a.destination) - net.level(a.source) for a in arrivals
    )
    return hops / (horizon * max(1, net.num_edges))


__all__ = ["problem_from_arrivals", "offered_load"]
