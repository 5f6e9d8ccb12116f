"""Injection sources: the workload-generator half of dynamic traffic.

Following the workload-generator / switch-model split of rotorsim-style
simulators, an :class:`InjectionSource` produces :class:`Arrival` records
step by step, independent of any router or engine.  Sources are *streams*:
``arrivals_at`` must be called for consecutive steps ``t = 0, 1, 2, ...``
so that seeded sources draw their RNG in a reproducible order (the
Bernoulli source draws one ``random(len(sources))`` batch per step and
one ``integers`` destination per hit).

Four concrete sources cover the setting:

* :class:`BernoulliSource` — per-step, per-source Bernoulli coins (the
  classic dynamic-deflection model of Broder & Upfal, the paper's [9]);
* :class:`PoissonSource` — Poisson-distributed aggregate arrivals per step
  with uniform placement;
* :class:`TraceSource` — replay a recorded list of arrivals;
* :class:`BatchSource` — the degenerate static case: everything at t=0.

``horizon`` is the source's natural end (``None`` = open-loop, unbounded);
:func:`collect_arrivals` materializes a finite prefix into a plain list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from ..net import LeveledNetwork
from ..rng import RngLike, make_rng
from ..types import NodeId


@dataclass(frozen=True)
class Arrival:
    """One dynamically arriving packet."""

    time: int
    source: NodeId
    destination: NodeId


class InjectionSource(Protocol):
    """Per-step arrival generator (see module docstring).

    ``horizon`` is the number of steps the source injects over (``None``
    for open-loop sources that never stop); ``arrivals_at(t)`` returns the
    arrivals of step ``t`` and must be called for consecutive ``t``.
    """

    horizon: Optional[int]

    def arrivals_at(self, t: int) -> List[Arrival]:
        """Arrivals injected at step ``t``, in a deterministic order."""
        ...


def _injection_sites(
    net: LeveledNetwork,
    source_levels: Optional[Sequence[int]],
    min_hops: int,
) -> Tuple[List[NodeId], dict]:
    """Injection-capable nodes (level order) and their destination options."""
    levels = (
        range(net.depth)
        if source_levels is None
        else [l for l in source_levels if 0 <= l < net.depth]
    )
    sources: List[NodeId] = []
    reach_cache: dict = {}
    for level in levels:
        for v in net.nodes_at_level(level):
            if net.out_degree(v) == 0:
                continue
            options = [
                u
                for u in sorted(net.forward_reachable(v))
                if net.level(u) >= net.level(v) + min_hops
            ]
            if options:
                sources.append(v)
                reach_cache[v] = options
    if not sources:
        raise WorkloadError("no injection-capable sources")
    return sources, reach_cache


class BernoulliSource:
    """Per-step, per-source Bernoulli(``rate``) arrivals.

    ``rate`` is the injection probability per eligible source per step;
    aggregate offered load is ``rate * |sources|`` packets/step.  Each
    arrival's destination is uniform over forward-reachable nodes at least
    ``min_hops`` ahead.  The draw sequence is pinned by
    ``tests/test_traffic.py``.
    """

    def __init__(
        self,
        net: LeveledNetwork,
        rate: float,
        *,
        seed: RngLike = None,
        horizon: Optional[int] = None,
        source_levels: Optional[Sequence[int]] = None,
        min_hops: int = 1,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise WorkloadError(f"rate must be a probability, got {rate}")
        if horizon is not None and horizon < 1:
            raise WorkloadError(f"horizon must be >= 1, got {horizon}")
        self.net = net
        self.rate = float(rate)
        self.horizon = horizon
        self._rng = make_rng(seed)
        self._sources, self._reach = _injection_sites(
            net, source_levels, int(min_hops)
        )

    def arrivals_at(self, t: int) -> List[Arrival]:
        if self.horizon is not None and t >= self.horizon:
            return []
        rng = self._rng
        sources = self._sources
        reach = self._reach
        out: List[Arrival] = []
        # All coins are compared at once; the destination draws stay one
        # scalar ``integers`` per hit, in source order.
        coins = rng.random(len(sources))
        for idx in np.flatnonzero(coins < self.rate).tolist():
            v = sources[idx]
            options = reach[v]
            dest = options[int(rng.integers(0, len(options)))]
            out.append(Arrival(time=t, source=v, destination=dest))
        return out


class PoissonSource:
    """Poisson(``mean_rate``) aggregate arrivals per step, placed uniformly.

    ``mean_rate`` is the expected number of packets injected network-wide
    per step; each arrival picks a uniform injection-capable source and a
    uniform forward destination at least ``min_hops`` ahead.
    """

    def __init__(
        self,
        net: LeveledNetwork,
        mean_rate: float,
        *,
        seed: RngLike = None,
        horizon: Optional[int] = None,
        source_levels: Optional[Sequence[int]] = None,
        min_hops: int = 1,
    ) -> None:
        if mean_rate < 0.0:
            raise WorkloadError(f"mean_rate must be >= 0, got {mean_rate}")
        if horizon is not None and horizon < 1:
            raise WorkloadError(f"horizon must be >= 1, got {horizon}")
        self.net = net
        self.mean_rate = float(mean_rate)
        self.horizon = horizon
        self._rng = make_rng(seed)
        self._sources, self._reach = _injection_sites(
            net, source_levels, int(min_hops)
        )

    def arrivals_at(self, t: int) -> List[Arrival]:
        if self.horizon is not None and t >= self.horizon:
            return []
        rng = self._rng
        count = int(rng.poisson(self.mean_rate))
        out: List[Arrival] = []
        for _ in range(count):
            v = self._sources[int(rng.integers(0, len(self._sources)))]
            options = self._reach[v]
            dest = options[int(rng.integers(0, len(options)))]
            out.append(Arrival(time=t, source=v, destination=dest))
        return out


class TraceSource:
    """Replay a recorded arrival list (time-ascending)."""

    def __init__(self, arrivals: Iterable[Arrival]) -> None:
        records = sorted(
            (Arrival(int(a.time), a.source, a.destination) for a in arrivals),
            key=lambda a: a.time,
        )
        if records and records[0].time < 0:
            raise WorkloadError("arrival times must be non-negative")
        by_time: dict = {}
        for a in records:
            by_time.setdefault(a.time, []).append(a)
        self._by_time = by_time
        self.horizon: Optional[int] = (
            records[-1].time + 1 if records else 1
        )

    def arrivals_at(self, t: int) -> List[Arrival]:
        return list(self._by_time.get(t, ()))


class BatchSource:
    """The degenerate static case: every packet arrives at t=0."""

    def __init__(self, endpoints: Iterable[Tuple[NodeId, NodeId]]) -> None:
        self._arrivals = [
            Arrival(0, src, dst) for src, dst in endpoints
        ]
        self.horizon: Optional[int] = 1

    def arrivals_at(self, t: int) -> List[Arrival]:
        return list(self._arrivals) if t == 0 else []


def collect_arrivals(
    source: InjectionSource, horizon: Optional[int] = None
) -> List[Arrival]:
    """Materialize a finite prefix of a source into a plain list."""
    end = horizon if horizon is not None else source.horizon
    if end is None:
        raise WorkloadError(
            "cannot materialize an open-loop source without a horizon"
        )
    out: List[Arrival] = []
    for t in range(int(end)):
        out.extend(source.arrivals_at(t))
    return out


__all__ = [
    "Arrival",
    "InjectionSource",
    "BernoulliSource",
    "PoissonSource",
    "TraceSource",
    "BatchSource",
    "collect_arrivals",
]
