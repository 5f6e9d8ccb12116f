"""Observability subsystem tests: counters, traces, timings, reports.

The load-bearing guarantees pinned here:

* attaching telemetry observers must not change simulation outcomes — the
  golden trace digest of ``tests/test_parallel_trials.py`` is re-checked
  with counters attached, and frontier runs produce identical results with
  and without an active session;
* counters are deterministic: serial and parallel sweeps of the same specs
  return byte-identical ``RunResult`` records *including* the telemetry
  snapshot;
* a JSONL trace round-trips event-for-event (plain and gzip), and offline
  replay reproduces the live counters;
* ``repro report`` renders from every artifact type without re-running.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.baselines import NaivePathRouter
from repro.errors import ReproError
from repro.experiments import (
    butterfly_hotrow_instance,
    run_spec_trials,
)
from repro.scenarios import RunSpec, run_cached, run_trial, save_spec
from repro.sim import Engine, EventKind, TraceEvent, TraceRecorder
from repro.telemetry import (
    Counters,
    JsonlTraceSink,
    TelemetrySession,
    TimingSpans,
    aggregate_counters,
    current_session,
    event_from_obj,
    event_to_obj,
    is_trace_path,
    load_trace,
    render_report,
    resolve_source,
    span,
)
from repro.telemetry.context import activate, deactivate
from repro.types import Direction

# Same pin as tests/test_parallel_trials.py: NaivePathRouter on
# butterfly_hotrow_instance(3, 8, seed=5), Engine seed=42.
_TRACE_SHA256 = "ae4a033f9757562e3e1a34a36f38c0b6bd101c5d66d0a97c2393ddb8826402c0"


def _trace_fingerprint(events):
    canonical = [
        (
            e.time,
            e.kind.value,
            e.packet,
            e.node,
            e.edge,
            None if e.direction is None else int(e.direction),
            e.detail,
        )
        for e in events
    ]
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def _spec(seed=7, name="telemetry-test"):
    """A small, fast frontier spec (2-3 executed phases)."""
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 8},
        selector="random",
        backend="frontier",
        backend_params={"m": 8, "w_factor": 8.0},
        seed=seed,
        name=name,
    )


# --------------------------------------------------------------- no-op-ness


class TestObserversDoNotPerturb:
    def test_golden_trace_digest_with_counters_attached(self):
        # The pinned fast-path regression run, now with the Counters
        # observer alongside the recorder: the event stream (and hence the
        # digest) must be bit-identical to the observer-free pin.
        problem = butterfly_hotrow_instance(3, 8, seed=5)
        trace = TraceRecorder()
        counters = Counters()
        engine = Engine(
            problem,
            NaivePathRouter(),
            seed=42,
            observers=[trace.on_event, counters.on_event],
        )
        result = engine.run(500)
        assert result.makespan == 9
        assert _trace_fingerprint(trace.events) == _TRACE_SHA256
        assert counters.events_total == 64
        assert counters.total_deflections == 12
        assert counters.absorptions == 8

    def test_session_does_not_change_the_result(self):
        spec = _spec()
        bare = run_trial(spec).result
        traced = run_trial(spec, telemetry=True).result
        assert bare.telemetry is None
        assert traced.telemetry is not None
        a, b = asdict(bare), asdict(traced)
        a.pop("telemetry"), b.pop("telemetry")
        assert a == b

    def test_no_session_means_no_instrumentation(self):
        assert current_session() is None
        problem = butterfly_hotrow_instance(3, 8, seed=5)
        engine = Engine(problem, NaivePathRouter(), seed=42)
        assert engine._step_timer is None
        assert not engine.tracing
        assert engine.run(500).telemetry is None


# ----------------------------------------------------------------- counters


class TestCounters:
    def test_frontier_emissions_populate_phase_buckets(self):
        result = run_trial(_spec(), telemetry=True).result
        tel = result.telemetry
        assert tel["events_total"] > 0
        assert tel["by_kind"].get("phase_start", 0) >= 1
        assert tel["by_kind"].get("round_start", 0) >= tel["by_kind"]["phase_start"]
        assert tel["absorptions"] == result.delivered
        assert (
            tel["deflections"]["safe"] + tel["deflections"]["unsafe"]
            == result.total_deflections
        )
        assert tel["deflections"]["unsafe"] == result.unsafe_deflections
        assert tel["steps_fast_forwarded"] == result.steps_skipped
        assert sum(b["absorptions"] for b in tel["per_phase"].values()) == (
            result.delivered
        )
        assert tel["level_peaks"]  # butterfly levels were occupied

    def test_serial_parallel_telemetry_identical(self):
        specs = [_spec(seed=s, name=f"t{s}") for s in (1, 2, 3, 4)]
        serial = run_spec_trials(specs, workers=1, telemetry=True)
        parallel = run_spec_trials(specs, workers=4, telemetry=True)
        for a, b in zip(serial, parallel):
            assert a.result.telemetry == b.result.telemetry
            assert asdict(a.result) == asdict(b.result)
            assert a.timings is not None and b.timings is not None

    def test_replay_matches_live(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        record = run_trial(_spec(), trace_path=str(trace_path))
        live = dict(record.result.telemetry)
        replayed = Counters.replay(load_trace(trace_path).events).to_dict()
        # Offline replay has no node->level table, so occupancy is skipped;
        # everything else must match exactly.
        live.pop("level_peaks")
        replayed.pop("level_peaks")
        assert replayed == live

    def test_aggregate_counters(self):
        records = run_spec_trials(
            [_spec(seed=s, name=f"t{s}") for s in (1, 2)], telemetry=True
        )
        snaps = [r.result.telemetry for r in records]
        combined = aggregate_counters(snaps)
        assert combined["runs"] == 2
        assert combined["events_total"] == sum(s["events_total"] for s in snaps)
        assert combined["absorptions"] == sum(s["absorptions"] for s in snaps)
        assert combined["phases_seen"] == max(s["phases_seen"] for s in snaps)
        for level, peak in combined["level_peaks"].items():
            assert peak == max(s["level_peaks"].get(level, 0) for s in snaps)
        assert aggregate_counters([]) is None
        assert aggregate_counters([None, None]) is None
        assert aggregate_counters([None, snaps[0]])["runs"] == 1

    def test_progress_callback_fires_per_trial(self):
        specs = [_spec(seed=s, name=f"p{s}") for s in range(7)]
        for dispatch_kw in (
            {"dispatch": "serial"},
            {"dispatch": "pool", "workers": 3, "chunksize": 2},
        ):
            seen = []
            records = run_spec_trials(
                specs, progress=lambda d, t, r: seen.append((d, t, r)), **dispatch_kw
            )
            assert [(d, t) for d, t, _ in seen] == [(i + 1, 7) for i in range(7)]
            # Each callback carries the record returned at that position,
            # and records come back in spec order.
            assert all(r is rec for (_, _, r), rec in zip(seen, records))
            assert [r.spec.content_hash() for r in records] == [
                s.content_hash() for s in specs
            ]


# -------------------------------------------------------------------- trace


class TestTrace:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_round_trips_event_for_event(self, tmp_path, suffix):
        problem = butterfly_hotrow_instance(3, 8, seed=5)
        recorder = TraceRecorder()
        path = tmp_path / f"trace{suffix}"
        with JsonlTraceSink(path) as sink:
            sink.write_header({"router": "NaivePathRouter"})
            engine = Engine(
                problem,
                NaivePathRouter(),
                seed=42,
                observers=[recorder.on_event, sink.on_event],
            )
            engine.run(500)
            sink.write_footer({"makespan": 9})
        trace = load_trace(path)
        assert trace.complete
        assert trace.header["router"] == "NaivePathRouter"
        assert trace.footer["makespan"] == 9
        assert trace.events == recorder.events
        assert _trace_fingerprint(trace.events) == _TRACE_SHA256

    def test_event_obj_round_trip_drops_nothing(self):
        event = TraceEvent(
            3,
            EventKind.DEFLECT,
            packet=5,
            node=12,
            edge=31,
            direction=Direction.BACKWARD,
            detail="x",
        )
        assert event_from_obj(event_to_obj(event)) == event
        sparse = TraceEvent(0, EventKind.FAST_FORWARD, detail="skipped 3 steps to 4")
        obj = event_to_obj(sparse)
        assert set(obj) == {"t", "k", "x"}  # None fields omitted
        assert event_from_obj(obj) == sparse

    def test_load_rejects_malformed(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(ReproError, match="not found"):
            load_trace(missing)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 0, "k": "move"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_trace(bad)

    def test_is_trace_path(self):
        assert is_trace_path("runs/a.jsonl")
        assert is_trace_path("a.jsonl.gz")
        assert is_trace_path("a.ndjson")
        assert not is_trace_path("spec.json")
        assert not is_trace_path("trace.txt")

    def test_run_trial_writes_trace(self, tmp_path):
        path = tmp_path / "run.jsonl.gz"
        record = run_trial(_spec(), trace_path=str(path))
        trace = load_trace(path)
        assert trace.complete
        assert trace.header["spec_hash"] == _spec().content_hash()
        assert trace.footer["makespan"] == record.result.makespan
        assert len(trace.events) == record.result.telemetry["events_total"]


# ------------------------------------------------------------------ timings


class TestTimings:
    def test_spans_accumulate(self):
        spans = TimingSpans()
        spans.add("x", 0.5)
        spans.add("x", 0.25)
        with spans.span("y"):
            pass
        out = spans.to_dict()
        assert out["x"]["total_sec"] == 0.75
        assert out["x"]["count"] == 2
        assert out["x"]["mean_sec"] == 0.375
        assert out["y"]["count"] == 1

    def test_module_span_is_noop_without_session(self):
        assert current_session() is None
        with span("anything"):
            pass  # must not raise, must not record anywhere

    def test_trial_timings_cover_the_pipeline(self):
        record = run_trial(_spec(), telemetry=True)
        assert record.timings is not None
        for stage in (
            "build_network",
            "build_workload",
            "path_selection",
            "backend",
            "engine_step",
        ):
            assert stage in record.timings, stage
        steps = record.timings["engine_step"]
        assert steps["count"] == record.result.steps_executed

    def test_timings_stay_out_of_the_result(self):
        record = run_trial(_spec(), telemetry=True)
        assert "timings" not in asdict(record.result)
        assert "engine_step" not in (record.result.telemetry or {})


# ------------------------------------------------------------------ session


class TestSessionContext:
    def test_no_nesting(self):
        with TelemetrySession() as outer:
            assert current_session() is outer
            with pytest.raises(RuntimeError):
                activate(TelemetrySession())
        assert current_session() is None

    def test_deactivate_is_scoped(self):
        session = TelemetrySession()
        deactivate(session)  # never activated: no-op
        activate(session)
        deactivate(object())  # not the active one: no-op
        assert current_session() is session
        deactivate(session)
        assert current_session() is None

    def test_ambient_session_spans_multiple_trials(self):
        with TelemetrySession() as session:
            run_trial(_spec(seed=1, name="a"))
            record = run_trial(_spec(seed=2, name="b"))
        assert session.engines_attached == 2
        # The ambient session's counters accumulate across both trials.
        assert record.result.telemetry["events_total"] == session.counters.events_total


# ------------------------------------------------------------- cache+report


class TestCacheAndReport:
    def test_cached_telemetry_round_trips(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = _spec()
        miss = run_cached(spec, cache=cache_dir, telemetry=True)
        assert not miss.cached
        assert miss.timings is not None
        hit = run_cached(spec, cache=cache_dir)
        assert hit.cached
        assert hit.result.telemetry == miss.result.telemetry
        assert hit.timings == miss.timings
        assert asdict(hit.result) == asdict(miss.result)

    def test_report_from_every_artifact(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        trace = tmp_path / "run.jsonl.gz"
        spec = _spec()
        spec_file = tmp_path / "spec.json"
        save_spec(spec, spec_file)
        assert (
            main(
                [
                    "run",
                    "--spec",
                    str(spec_file),
                    "--cache",
                    "--cache-dir",
                    str(cache_dir),
                    "--trace",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        record_file = cache_dir / f"{spec.content_hash()}.json"
        assert record_file.exists()
        targets = [
            str(spec_file),
            spec.content_hash(),
            str(record_file),
            str(trace),
        ]
        for target in targets:
            code = main(["report", target, "--cache-dir", str(cache_dir)])
            out = capsys.readouterr().out
            assert code == 0, target
            assert "bounds" in out, target
            assert "deflection breakdown" in out, target
            assert "phase timeline" in out, target

    def test_report_renders_without_rerunning(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = _spec()
        run_cached(spec, cache=cache_dir, telemetry=True)
        source = resolve_source(spec.content_hash(), cache_dir=cache_dir)
        text = render_report(source)
        assert "phase timeline" in text
        assert str(spec.content_hash()) in text

    def test_report_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "0123456789abcdef", "--cache-dir", str(tmp_path)]) == 2
        assert "no cached result" in capsys.readouterr().err
        assert main(["report", "not-a-hash-or-file"]) == 2
        assert "neither an existing file" in capsys.readouterr().err
        spec = _spec()
        spec_file = tmp_path / "spec.json"
        save_spec(spec, spec_file)
        assert main(["report", str(spec_file), "--cache-dir", str(tmp_path)]) == 2
        assert "run it first" in capsys.readouterr().err

    def test_report_from_result_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import result_to_dict

        result = run_trial(_spec(), telemetry=True).result
        out_file = tmp_path / "result.json"
        out_file.write_text(json.dumps(result_to_dict(result)), encoding="utf-8")
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "deflection breakdown" in out

    def test_sweep_telemetry_summary(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--net",
                "butterfly:3",
                "--trials",
                "2",
                "--telemetry",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "telemetry :" in captured.out
        assert "trial 1/2" in captured.err


# --------------------------------------------------- batched-sweep identity


class TestBatchedExecutionIdentity:
    """Warm-cache / pooled execution must be invisible to observability."""

    def test_pooled_telemetry_counters_identical(self):
        specs = [_spec(seed=s, name=f"t{s}") for s in (1, 2, 3, 4)]
        cold = run_spec_trials(
            specs, telemetry=True, warm=False, dispatch="serial"
        )
        pooled = run_spec_trials(
            specs, workers=2, chunksize=2, telemetry=True, dispatch="pool"
        )
        for a, b in zip(cold, pooled):
            assert a.result.telemetry == b.result.telemetry
            assert asdict(a.result) == asdict(b.result)

    def test_warm_cache_preserves_trace_digest(self, tmp_path):
        from repro.scenarios import ScenarioCache

        spec = _spec(seed=7, name="warmtrace")
        cold_path = tmp_path / "cold.jsonl"
        warm_path = tmp_path / "warm.jsonl"
        cold = run_trial(spec, trace_path=str(cold_path))

        warm = ScenarioCache()
        warm.problem_for(spec)  # pre-warm: the traced run is a pure hit
        warmed = run_trial(spec, trace_path=str(warm_path), warm=warm)

        assert asdict(cold.result) == asdict(warmed.result)
        cold_events = load_trace(cold_path).events
        warm_events = load_trace(warm_path).events
        assert cold_events == warm_events
        assert _trace_fingerprint(cold_events) == _trace_fingerprint(
            warm_events
        )
