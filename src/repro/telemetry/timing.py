"""Wall-clock timing spans (``time.perf_counter`` accumulators).

A :class:`TimingSpans` aggregates named spans — total seconds and call
count per name — so a run's wall-clock budget can be split into its
pipeline stages: topology build, workload sampling, path selection, the
backend, and the engine's inner step loop (``engine_step``, fed by
:meth:`repro.sim.Engine.run` when a telemetry session is active).

Timings are *observability, not results*: they are machine- and
load-dependent, so they never enter :class:`~repro.sim.RunResult` (whose
serial-vs-parallel byte-identity is a repo invariant).  They ride on
:class:`~repro.scenarios.ScenarioRun` and in the result cache's sidecar
``timings`` key instead.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Dict, Iterator

from .context import current_session

#: Span name used for the engine's inner step loop.
ENGINE_STEP_SPAN = "engine_step"


class TimingSpans:
    """Named wall-clock accumulators (total seconds + call counts)."""

    def __init__(self) -> None:
        self._total: Dict[str, float] = {}
        self._count: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold one measured interval into the span ``name``."""
        self._total[name] = self._total.get(name, 0.0) + seconds
        self._count[name] = self._count.get(name, 0) + 1

    def add_step(self, seconds: float) -> None:
        """Engine hook: one executed :meth:`~repro.sim.Engine.step`."""
        self.add(ENGINE_STEP_SPAN, seconds)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - start)

    def total(self, name: str) -> float:
        """Accumulated seconds for one span (0.0 if never entered)."""
        return self._total.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of intervals folded into one span."""
        return self._count.get(name, 0)

    def merge(self, other: "TimingSpans") -> None:
        """Fold every span of ``other`` into this one's."""
        for name, total in other._total.items():
            self._total[name] = self._total.get(name, 0.0) + total
            self._count[name] = self._count.get(name, 0) + other._count[name]

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe snapshot: ``{name: {total_sec, count, mean_sec}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._total):
            total = self._total[name]
            count = self._count[name]
            out[name] = {
                "total_sec": total,
                "count": float(count),
                "mean_sec": total / count if count else 0.0,
            }
        return out


@contextlib.contextmanager
def span(name: str) -> Iterator[None]:
    """Time a block against the *active* session's spans (no-op when off).

    The pipeline stages (:mod:`repro.scenarios.dispatch`) wrap themselves in
    this: with no session active it costs one ``None`` check per stage per
    trial — never anything per step or per event.
    """
    session = current_session()
    spans = getattr(session, "spans", None)
    if spans is None:
        yield
        return
    start = perf_counter()
    try:
        yield
    finally:
        spans.add(name, perf_counter() - start)
