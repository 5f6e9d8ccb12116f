"""Dynamic-traffic router wrappers.

Arrival release now lives in the engine itself (the reference
:class:`~repro.sim.Engine` gates injection eligibility on an
:class:`~repro.traffic.ArrivalSchedule`), so these
routers are thin adapters: they carry the schedule, install it at attach
time, and otherwise behave exactly like their static baselines.  Runs are
byte-identical to the old mixin-based release (same eligible set at every
step, same RNG draw sequence).
"""

from __future__ import annotations

from typing import Sequence

from ..baselines import GreedyHotPotatoRouter, NaivePathRouter
from ..rng import RngLike
from ..sim import Engine
from ..traffic import ArrivalSchedule


class DynamicNaiveRouter(NaivePathRouter):
    """Path-following deflection routing with timed arrivals."""

    def __init__(self, arrival_times: Sequence[int]) -> None:
        self.schedule = ArrivalSchedule(arrival_times)
        self.arrival_times = list(self.schedule.times)

    def attach(self, engine: Engine) -> None:
        engine.set_arrival_schedule(self.schedule)
        NaivePathRouter.attach(self, engine)


class DynamicGreedyRouter(GreedyHotPotatoRouter):
    """Distance-greedy deflection routing with timed arrivals."""

    def __init__(self, arrival_times: Sequence[int], seed: RngLike = None) -> None:
        GreedyHotPotatoRouter.__init__(self, seed=seed)
        self.schedule = ArrivalSchedule(arrival_times)
        self.arrival_times = list(self.schedule.times)

    def attach(self, engine: Engine) -> None:
        engine.set_arrival_schedule(self.schedule)
        GreedyHotPotatoRouter.attach(self, engine)


def router_attach(router, engine: Engine) -> None:
    """Attach without the static baselines' mark-all-eligible behavior."""
    from ..sim import Router

    Router.attach(router, engine)

