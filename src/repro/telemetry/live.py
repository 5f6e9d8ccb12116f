"""Windowed live metrics for open-loop streaming runs.

Long-running service runs cannot accumulate per-packet state and report at
the end — they may never end.  :class:`WindowedMetrics` is the stream
driver's window fold: the driver hands it each step's tallies (injections,
absorbed ids, deflections) read off the engine, and it folds them into a
fixed-size rolling window (throughput, latency percentiles, occupancy,
deflection and drop rates) and *flushes* each completed window to a sink
as one JSON-serializable dict, keeping memory bounded by the number of
packets in flight — the rotorsim ``Log`` cache idiom of buffering a small
window and emitting incrementally instead of holding the run's history.

The sink is any callable accepting a dict; the CLI wires it to JSONL
(one object per line) or SSE (``data: {...}\\n\\n`` frames) on stdout.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

WINDOW_SCHEMA = (
    "kind",
    "window",
    "t_start",
    "t_end",
    "steps",
    "arrivals",
    "injected",
    "delivered",
    "dropped",
    "deflections",
    "unsafe_deflections",
    "in_flight",
    "occupancy_mean",
    "occupancy_max",
    "throughput",
    "latency_mean",
    "latency_p50",
    "latency_p95",
    "latency_max",
)


def _quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted data (numpy 'linear')."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= n:
        return sorted_values[-1]
    return sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo])


class _WindowRecord:
    """Attribute holder whose instance dict is emitted as a window record.

    CPython's instance dicts of one class share a single key table, so each
    record's dict stores only its values: about 0.26 KB against 0.47 KB for
    a dict literal, before the values themselves.  A reader that keeps
    every window holds about 40% less.  The record is still a plain
    ``dict``.
    """


class WindowedMetrics:
    """Rolling per-window stream statistics, flushed incrementally.

    Fed by driver callbacks only — it observes no engine events, so a
    window's numbers do not depend on whether anyone traces the run:
    :meth:`note_arrival` when the driver admits a packet, :meth:`note_drop`
    when it sheds one, :meth:`end_step` with the tallies of each executed
    engine step, and :meth:`close` to flush the final partial window.
    Latency is measured arrival-to-absorption in steps.
    """

    def __init__(
        self,
        window: int = 50,
        sink: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.sink = sink
        self.windows_emitted = 0
        #: arrival step of each packet currently in flight (pid -> step);
        #: entries are removed at absorption, so size tracks live packets
        self._arrival_step: Dict[int, int] = {}
        self._t_start = 0
        self._steps = 0
        self._in_flight = 0
        self._reset_window()

    def _reset_window(self) -> None:
        self._arrivals = 0
        self._injected = 0
        self._delivered = 0
        self._dropped = 0
        self._deflections = 0
        self._unsafe = 0
        self._latencies: List[float] = []
        self._occ_sum = 0
        self._occ_max = 0
        self._steps = 0

    # ------------------------------------------------------- driver callbacks

    def note_arrival(self, packet_id: int, t: int) -> None:
        """Record a packet admitted to the engine at step ``t``."""
        self._arrival_step[packet_id] = t
        self._arrivals += 1

    def note_drop(self, t: int) -> None:
        """Record an arrival shed by the admission policy."""
        self._dropped += 1

    # ------------------------------------------------------------ step clock

    def end_step(
        self,
        t: int,
        num_active: int,
        *,
        injected: int = 0,
        absorbed: Sequence[int] = (),
        deflections: int = 0,
        unsafe: int = 0,
    ) -> None:
        """Fold the tallies of engine step ``t`` and advance the window clock.

        ``num_active`` is the live-packet census after the step; ``injected``
        counts the packets that entered the network in it, ``absorbed`` lists
        the ids delivered in it, and ``deflections`` counts its deflections,
        ``unsafe`` of them unsafe.
        """
        self._injected += injected
        self._deflections += deflections
        self._unsafe += unsafe
        if absorbed:
            self._delivered += len(absorbed)
            arrival_step = self._arrival_step
            latencies = self._latencies
            # absorbed_at convention: delivery completes at time + 1
            done = t + 1
            for pid in absorbed:
                arrived = arrival_step.pop(pid, None)
                if arrived is not None:
                    latencies.append(float(done - arrived))
        self._steps += 1
        self._in_flight = num_active
        self._occ_sum += num_active
        if num_active > self._occ_max:
            self._occ_max = num_active
        if (t + 1) % self.window == 0:
            self._flush(t)

    def close(self, t: int) -> None:
        """Flush a trailing partial window, if any steps are buffered."""
        if self._steps:
            self._flush(t)

    # ----------------------------------------------------------------- flush

    def _flush(self, t: int) -> None:
        steps = self._steps
        lat = sorted(self._latencies)
        end = t + 1
        # Fields are set in WINDOW_SCHEMA order, which the dict keeps.
        rec = _WindowRecord()
        rec.kind = "metrics_window"
        rec.window = self.windows_emitted
        rec.t_start = self._t_start
        rec.t_end = end
        rec.steps = steps
        rec.arrivals = self._arrivals
        rec.injected = self._injected
        rec.delivered = self._delivered
        rec.dropped = self._dropped
        rec.deflections = self._deflections
        rec.unsafe_deflections = self._unsafe
        rec.in_flight = self._in_flight
        rec.occupancy_mean = self._occ_sum / steps if steps else 0.0
        rec.occupancy_max = self._occ_max
        rec.throughput = self._delivered / steps if steps else 0.0
        rec.latency_mean = (sum(lat) / len(lat)) if lat else None
        rec.latency_p50 = _quantile(lat, 0.5) if lat else None
        rec.latency_p95 = _quantile(lat, 0.95) if lat else None
        rec.latency_max = lat[-1] if lat else None
        record: Dict[str, object] = vars(rec)
        self.windows_emitted += 1
        self._t_start = end
        self._reset_window()
        if self.sink is not None:
            self.sink(record)


__all__ = ["WindowedMetrics", "WINDOW_SCHEMA"]
