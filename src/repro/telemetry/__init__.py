"""Observability for routing runs: counters, traces, timings, reports.

The subsystem has four pieces, all riding the engine's existing
zero-cost-when-off event hook (``docs/observability.md`` is the guide):

* :class:`Counters` — an event observer accumulating the quantities the
  paper's analysis talks about (deflections by kind, absorptions, state
  transitions, per-phase activity, per-level occupancy peaks).  Counters
  are deterministic, so they attach to ``RunResult.telemetry`` and survive
  caching and parallel execution unchanged.
* :class:`JsonlTraceSink` / :func:`load_trace` — stream the event stream
  to a (gzip-compressed) JSONL file and round-trip it back,
  event-for-event, for offline analysis.
* :class:`TimingSpans` / :func:`span` — ``perf_counter`` wall-clock spans
  around the engine step loop and the scenario pipeline stages
  (machine-dependent; kept out of results, reported separately).
* ``python -m repro report`` (:mod:`repro.telemetry.report`) — render a
  summary from any artifact (spec, cache record, result file, or trace)
  without re-running anything.

:class:`ProgressSink` carries the JSONL progress stream (``--progress``)
of sweeps and tuning studies to a callable, a file or stderr.

Activation is scoped through a process-local :class:`TelemetrySession`
(``with TelemetrySession(trace_path=...):``); engines discover it at
construction time via :func:`current_session`, so code that never opens a
session pays nothing — the "no observer ⇒ no event construction" fast
path is untouched.
"""

from .context import current_session
from .counters import (
    COUNTERS_SCHEMA,
    PHASE_FIELDS,
    Counters,
    aggregate_counters,
    counters_digest,
)
from .live import WINDOW_SCHEMA, WindowedMetrics
from .progress import ProgressSink
from .report import ReportSource, render_report, resolve_source
from .session import TelemetryConfig, TelemetrySession
from .timing import ENGINE_STEP_SPAN, TimingSpans, span
from .trace import (
    TRACE_FORMAT,
    TRACE_SUFFIXES,
    JsonlTraceSink,
    TraceFile,
    event_from_obj,
    event_to_obj,
    is_trace_path,
    load_trace,
)

__all__ = [
    "COUNTERS_SCHEMA",
    "ENGINE_STEP_SPAN",
    "PHASE_FIELDS",
    "TRACE_FORMAT",
    "TRACE_SUFFIXES",
    "Counters",
    "JsonlTraceSink",
    "ProgressSink",
    "ReportSource",
    "TelemetryConfig",
    "TelemetrySession",
    "TimingSpans",
    "TraceFile",
    "WINDOW_SCHEMA",
    "WindowedMetrics",
    "aggregate_counters",
    "counters_digest",
    "current_session",
    "event_from_obj",
    "event_to_obj",
    "is_trace_path",
    "load_trace",
    "render_report",
    "resolve_source",
    "span",
]
