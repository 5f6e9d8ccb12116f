"""``repro report``: render a run summary from artifacts, not re-runs.

The reporter consumes any of the observability artifacts the pipeline
produces — a spec file (looked up in the result cache by content hash), a
bare 16-hex spec hash, a cached scenario record, a saved
:class:`~repro.sim.RunResult` JSON, or a JSONL trace (replayed through
:class:`~repro.telemetry.Counters`) — and renders the same report: outcome
vs the ``C + D`` lower bound, the deflection breakdown, the per-phase
timeline, level occupancy peaks, and wall-clock spans.  Nothing here ever
runs the simulator.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..sim import RunResult

# The renderer's table helpers live in repro.analysis, which (transitively)
# imports repro.sim — the package this module is imported *from* (the engine
# pulls in repro.telemetry.context at class-definition time).  Import them
# lazily to keep the telemetry package importable from anywhere.

PathLike = Union[str, pathlib.Path]

_HASH_RE = re.compile(r"^[0-9a-f]{16}$")


@dataclass
class ReportSource:
    """Everything the renderer may have about one run (fields optional)."""

    label: str
    result: Optional["RunResult"] = None
    counters: Optional[dict] = None
    timings: Optional[dict] = None
    header: Optional[dict] = None
    footer: Optional[dict] = None
    spec_summary: Optional[str] = None


# ----------------------------------------------------------------- resolve


def _cache(cache_dir):
    from ..scenarios.cache import ResultCache

    if cache_dir is None:
        return ResultCache.default()
    return ResultCache(cache_dir)


def _from_cache_payload(payload: dict, label: str) -> ReportSource:
    from ..io import result_from_dict
    from ..scenarios.spec import RunSpec

    result = result_from_dict(payload["result"])
    spec_summary = None
    if payload.get("spec"):
        try:
            spec_summary = RunSpec.from_dict(payload["spec"]).describe()
        except ReproError:
            spec_summary = None
    return ReportSource(
        label=label,
        result=result,
        counters=result.telemetry,
        timings=payload.get("timings"),
        spec_summary=spec_summary,
    )


def _from_spec(spec, cache_dir, label: str) -> ReportSource:
    cache = _cache(cache_dir)
    payload = cache.load_payload(spec.content_hash())
    if payload is None:
        raise ReproError(
            f"no cached result for spec {spec.content_hash()} in "
            f"{cache.root}; run it first: "
            "python -m repro run --spec <file> --cache"
        )
    source = _from_cache_payload(payload, label)
    source.spec_summary = spec.describe()
    return source


def _from_trace(path: pathlib.Path) -> ReportSource:
    from .counters import Counters
    from .trace import load_trace

    trace = load_trace(path)
    counters = Counters.replay(trace.events)
    return ReportSource(
        label=f"trace {path}",
        counters=counters.to_dict(),
        header=trace.header,
        footer=trace.footer,
    )


def resolve_source(
    target: str, cache_dir: Optional[PathLike] = None
) -> ReportSource:
    """Turn a CLI target (path or spec hash) into a :class:`ReportSource`."""
    from ..io import result_from_dict
    from ..scenarios.spec import RunSpec
    from .trace import is_trace_path

    path = pathlib.Path(target)
    if path.exists():
        if is_trace_path(path):
            return _from_trace(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        kind = payload.get("kind")
        if kind == "run_spec":
            return _from_spec(
                RunSpec.from_dict(payload), cache_dir, label=f"spec {path}"
            )
        if kind == "scenario_result":
            return _from_cache_payload(payload, label=f"cached record {path}")
        if kind == "run_result":
            result = result_from_dict(payload)
            return ReportSource(
                label=f"result {path}",
                result=result,
                counters=result.telemetry,
            )
        raise ReproError(
            f"{path}: unrecognized record kind {kind!r} (expected run_spec, "
            "scenario_result, run_result, or a .jsonl/.jsonl.gz trace)"
        )
    if _HASH_RE.match(target):
        cache = _cache(cache_dir)
        payload = cache.load_payload(target)
        if payload is None:
            raise ReproError(
                f"no cached result {target} in {cache.root} "
                "(is --cache-dir right?)"
            )
        return _from_cache_payload(payload, label=f"cache {target}")
    raise ReproError(
        f"report target {target!r} is neither an existing file nor a "
        "16-hex spec content hash"
    )


# ------------------------------------------------------------------ render


def _run_section(source: ReportSource) -> str:
    from ..analysis.report import format_kv

    result = source.result
    header = source.header or {}
    footer = source.footer or {}
    counters = source.counters or {}
    pairs = {}
    if source.spec_summary:
        pairs["spec"] = source.spec_summary
    if result is not None:
        pairs.update(
            {
                "router": result.router_name,
                "network": result.network_name,
                "packets": result.num_packets,
                "delivered": result.delivered,
                "makespan": result.makespan,
                "steps executed": result.steps_executed,
                "steps fast-forwarded": result.steps_skipped,
            }
        )
    else:
        for key, label in (
            ("router", "router"),
            ("network", "network"),
            ("num_packets", "packets"),
            ("spec_hash", "spec hash"),
        ):
            if key in header:
                pairs[label] = header[key]
        for key, label in (
            ("delivered", "delivered"),
            ("makespan", "makespan"),
            ("steps_executed", "steps executed"),
            ("steps_skipped", "steps fast-forwarded"),
        ):
            if key in footer:
                pairs[label] = footer[key]
        if "events_total" in counters:
            pairs["trace events"] = counters["events_total"]
    return format_kv(pairs, title=f"run — {source.label}")


def _bounds_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_kv

    result = source.result
    header = source.header or {}
    footer = source.footer or {}
    if result is not None:
        congestion, dilation = result.congestion, result.dilation
        makespan = result.makespan
    else:
        congestion = header.get("congestion")
        dilation = header.get("dilation")
        makespan = footer.get("makespan")
    if congestion is None or dilation is None or makespan is None:
        return None
    cd = congestion + dilation
    trivial = max(congestion, dilation)
    return format_kv(
        {
            "congestion C": congestion,
            "dilation D": dilation,
            "C + D": cd,
            "max(C, D)": trivial,
            "T / (C + D)": makespan / max(1, cd),
            "T / max(C, D)": makespan / max(1, trivial),
        },
        title="bounds (paper: T = O((C + L) ln^9(LN)) w.h.p.)",
    )


def _deflection_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_table

    counters = source.counters
    result = source.result
    rows: List[list] = []
    if counters and counters.get("deflections"):
        safe = counters["deflections"].get("safe", 0)
        unsafe = counters["deflections"].get("unsafe", 0)
        total = safe + unsafe
        moves = counters.get("moves", {})
        rows.append(["deflect (safe backward)", safe])
        rows.append(["unsafe_deflect", unsafe])
        rows.append(["total deflections", total])
        rows.append(["path moves (forward)", moves.get("forward", 0)])
        rows.append(["path moves (backward)", moves.get("backward", 0)])
    elif result is not None:
        total = result.total_deflections
        unsafe = result.unsafe_deflections
        rows.append(["deflect (safe backward)", total - unsafe])
        rows.append(["unsafe_deflect", unsafe])
        rows.append(["total deflections", total])
    if not rows:
        return None
    if result is not None and result.deflections_per_packet:
        per_packet = result.deflections_per_packet
        rows.append(["max per packet", max(per_packet)])
        rows.append(
            ["mean per packet", round(sum(per_packet) / len(per_packet), 3)]
        )
    return format_table(
        ["deflection breakdown", "count"],
        rows,
        note="the paper's algorithm keeps unsafe_deflect at 0 (Lemma 2.1)",
    )


def _phase_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_bar, format_table

    counters = source.counters
    if not counters or not counters.get("per_phase"):
        return None
    per_phase = counters["per_phase"]
    max_moves = max(
        (bucket.get("moves", 0) for bucket in per_phase.values()), default=0
    )
    rows = []
    for phase in sorted(per_phase, key=int):
        bucket = per_phase[phase]
        rows.append(
            [
                phase,
                bucket.get("rounds", 0),
                bucket.get("injections", 0),
                bucket.get("moves", 0),
                bucket.get("deflections", 0),
                bucket.get("absorptions", 0),
                bucket.get("wait_entries", 0),
                bucket.get("excitations", 0),
                format_bar(bucket.get("moves", 0), max_moves, width=20),
            ]
        )
    return format_table(
        ["phase", "rounds", "inject", "moves", "defl", "absorb", "wait", "excite", "activity"],
        rows,
        title="phase timeline (frontier-frame schedule, Section 2.1)",
        note="phases with no executed steps (quiescence fast-forward) emit "
        "no events and are absent",
    )


def _occupancy_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_bar, format_table

    counters = source.counters
    if not counters or not counters.get("level_peaks"):
        return None
    peaks = counters["level_peaks"]
    max_peak = max(peaks.values())
    rows = [
        [level, peaks[level], format_bar(peaks[level], max_peak, width=20)]
        for level in sorted(peaks, key=int)
    ]
    return format_table(
        ["level", "peak occupancy", ""],
        rows,
        title="per-level peak occupancy (packets simultaneously resident)",
    )


def _state_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_kv

    counters = source.counters
    if not counters or not counters.get("state_transitions"):
        return None
    transitions = counters["state_transitions"]
    return format_kv(
        {name: transitions[name] for name in sorted(transitions)},
        title="state transitions (normal / excited / wait)",
    )


def _timing_section(source: ReportSource) -> Optional[str]:
    from ..analysis.report import format_table

    if not source.timings:
        return None
    rows = []
    for name in sorted(source.timings):
        span = source.timings[name]
        rows.append(
            [
                name,
                round(span.get("total_sec", 0.0), 6),
                int(span.get("count", 0)),
                round(span.get("mean_sec", 0.0), 9),
            ]
        )
    return format_table(
        ["span", "total (s)", "count", "mean (s)"],
        rows,
        title="wall-clock spans (perf_counter; machine-dependent)",
    )


def render_report(source: ReportSource) -> str:
    """The full plain-text report for one resolved source."""
    sections = [
        _run_section(source),
        _bounds_section(source),
        _deflection_section(source),
        _phase_section(source),
        _occupancy_section(source),
        _state_section(source),
        _timing_section(source),
    ]
    body = "\n\n".join(s for s in sections if s)
    if source.counters is None and source.timings is None:
        body += (
            "\n\nnote: no telemetry attached to this record; re-run with "
            "--telemetry (or --trace) for the deflection/phase detail."
        )
    elif source.counters is not None and not source.timings:
        body += (
            "\n\nnote: counters but no wall-clock timings (lockstep batch "
            "runs, traces and saved results record no per-trial spans)."
        )
    return body
