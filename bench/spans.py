"""Benchmark-side tracing: spans around repro's layer entry points.

Only a traced run imports this module.  :class:`Tracer` replaces each
function in :data:`TARGETS` by a wrapper wherever it is bound (every loaded
module that holds it, under any name, or the class that owns a method) and
restores the originals afterwards.  Only calls made at
most once per step, per admission or per trial are wrapped; per-event
observers are not, so the wrappers cost a bounded share of the run.

Each span records its name, start, end, span id, parent id and a request id
of the form ``workload/repeat/cell``.  Spans stay in memory until
:meth:`Tracer.write`.  :func:`layer_metrics` reduces them to the per-layer
metrics; a layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


def _hit(ret, args, kwargs):
    return {"hit": ret is not None}


def _audited(ret, args, kwargs):
    return {"audit": bool(kwargs.get("audit"))}


def _lockstep_counts(ret, args, kwargs):
    return {"trials": len(ret), "steps": sum(r.steps_executed for r in ret)}


#: ``(span name, defining module, attribute path, fields(ret, args, kwargs))``
#: grouped by the repro package each layer lives in.
TARGETS = (
    # scenarios
    ("build_network", "repro.scenarios.dispatch", "build_network", None),
    ("build_problem", "repro.scenarios.dispatch", "build_problem", None),
    ("scenario_cache", "repro.scenarios.cache", "ScenarioCache.problem_for", None),
    ("result_cache.load", "repro.scenarios.cache", "ResultCache.load_record", _hit),
    ("result_cache.store", "repro.scenarios.cache", "ResultCache.store", None),
    # experiments
    ("run_chunk", "repro.experiments.batch", "TrialExecutor.run_chunk", None),
    ("per_trial", "repro.experiments.batch", "TrialExecutor.run", None),
    ("frontier_trial", "repro.experiments.runner", "run_frontier_trial", _audited),
    # sim
    ("lockstep.init", "repro.sim.engine_lockstep", "LockstepEngine.frontier", None),
    ("lockstep.init", "repro.sim.engine_lockstep", "LockstepEngine.naive", None),
    ("lockstep.run", "repro.sim.engine_lockstep", "LockstepEngine.run", _lockstep_counts),
    ("engine.init", "repro.sim.engine", "Engine.__init__", None),
    ("engine.run", "repro.sim.engine", "Engine.run", None),
    ("engine.step", "repro.sim.engine", "Engine.step", None),
    ("engine.admit", "repro.sim.engine", "Engine.admit", None),
    ("engine.retire", "repro.sim.engine", "Engine.retire", None),
    # sweeps
    ("run_sweep", "repro.sweeps.dispatch", "run_sweep", None),
    ("store.append", "repro.sweeps.store", "ShardWriter.append", None),
    ("store.resume", "repro.sweeps.store", "SweepStore.resume_shard", None),
    ("store.finalize", "repro.sweeps.store", "SweepStore.finalize_shard", None),
    ("store.compact", "repro.sweeps.store", "SweepStore.compact", None),
    ("aggregate", "repro.sweeps.aggregate", "aggregate_store", None),
    ("lease.claim", "repro.sweeps.lease", "LeaseManager.claim", None),
    # tuning
    ("run_study", "repro.tuning.driver", "run_study", None),
    # traffic, paths, telemetry
    ("run_stream", "repro.traffic.stream", "run_stream", None),
    ("arrivals", "repro.traffic.sources", "BernoulliSource.arrivals_at", None),
    ("random_monotone_path", "repro.paths.path", "random_monotone_path", None),
    ("windowed", "repro.telemetry.live", "WindowedMetrics.end_step", None),
    ("windowed", "repro.telemetry.live", "WindowedMetrics.close", None),
)


def _binding(owner, attr: str):
    """What ``owner`` holds under ``attr``; for a class, its own dict entry."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def bindings():
    """Where each target is bound: ``(span name, fields, places, original)``.

    ``places`` lists ``(owner, attribute)`` pairs that hold ``original``: the
    owning class for a method, else every loaded module attribute bound to
    the function, under any name.
    """
    modules = [m for m in list(sys.modules.values()) if m is not None]
    out = []
    for span_name, module_name, path, fields in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = _binding(owner, attr)
        if outer:
            places = [(owner, attr)]
        else:
            places = [
                (module, name)
                for module in modules
                for name, value in list(vars(module).items())
                if value is original
            ]
        out.append((span_name, fields, places, original))
    return out


class Span(NamedTuple):
    name: str
    start: float
    end: float
    id: int
    parent: int
    request: str
    fields: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = ""
        self._stack: List[int] = [0]
        self._next_id = 1
        #: (owner, attribute, original) for every binding replaced
        self._patched: List[tuple] = []

    def wrap(self, name: str, fn: Callable, fields=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            extra = None
            start = perf_counter()
            try:
                ret = fn(*args, **kwargs)
                if fields is not None:
                    extra = fields(ret, args, kwargs)
                return ret
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    Span(name, start, end, sid, parent, tracer.request, extra)
                )

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target at every binding :func:`bindings` finds."""
        for span_name, fields, places, original in bindings():
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(span_name, original.__func__, fields))
            else:
                wrapped = self.wrap(span_name, original, fields)
            for owner, attr in places:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back and check that each one is."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [
            (owner, attr)
            for owner, attr, original in self._patched
            if _binding(owner, attr) is not original
        ]
        self._patched = []
        if left:
            raise RuntimeError(f"tracing left wrappers behind: {left}")

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        """Write the spans as JSONL, times in seconds from the first start."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "name": s.name,
                    "start": round(s.start - origin, 9),
                    "end": round(s.end - origin, 9),
                    "id": s.id,
                    "parent": s.parent,
                    "request": s.request,
                }
                if s.fields:
                    record.update(s.fields)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# ------------------------------------------------------------------ metrics


def self_times(spans: List[Span]) -> Dict[str, List[float]]:
    """``{name: [self seconds, calls]}`` over a span list."""
    covered: Dict[int, float] = {}
    for s in spans:
        covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    out: Dict[str, List[float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, [0.0, 0])
        entry[0] += s.duration - covered.get(s.id, 0.0)
        entry[1] += 1
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shard_seconds(spans: List[Span]) -> List[float]:
    """Seconds from each shard's lease claim to its finalize, per sweep."""
    by_parent: Dict[int, List[Span]] = {}
    for s in spans:
        if s.name in ("lease.claim", "store.finalize"):
            by_parent.setdefault(s.parent, []).append(s)
    out = []
    for group in by_parent.values():
        claim = None
        for s in sorted(group, key=lambda s: s.start):
            if s.name == "lease.claim":
                claim = s
            elif claim is not None:
                out.append(s.end - claim.start)
                claim = None
    return out


def layer_metrics(spans: List[Span], wall: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced batch of ``wall`` s."""
    st = self_times(spans)

    def self_s(name):
        return st.get(name, [0.0, 0])[0]

    def calls(name):
        return st.get(name, [0.0, 0])[1]

    ids = {s.id: s for s in spans}
    cache_builds = sum(
        1
        for s in spans
        if s.name == "build_problem"
        and s.parent in ids
        and ids[s.parent].name == "scenario_cache"
    )
    loads = [s for s in spans if s.name == "result_cache.load"]
    lockstep = [s for s in spans if s.name == "lockstep.run"]
    lockstep_trials = sum(s.fields["trials"] for s in lockstep)
    audited = [s for s in spans if s.name == "frontier_trial" and s.fields and s.fields["audit"]]
    steps = calls("engine.step") + sum(s.fields["steps"] for s in lockstep)
    kernel_s = self_s("engine.step") + self_s("engine.run") + self_s("lockstep.run")
    roots = sum(s.duration for s in spans if s.parent == 0)
    shards = shard_seconds(spans)
    return {
        "build_network.self_s": self_s("build_network"),
        "build_network.calls": calls("build_network"),
        "build_problem.self_s": self_s("build_problem"),
        "build_problem.calls": calls("build_problem"),
        "scenario_cache.hit_ratio": _ratio(
            calls("scenario_cache") - cache_builds, calls("scenario_cache")
        ),
        "result_cache.load.self_s": self_s("result_cache.load"),
        "result_cache.store.self_s": self_s("result_cache.store"),
        "result_cache.hit_ratio": _ratio(
            sum(s.fields["hit"] for s in loads), len(loads)
        ),
        "run_chunk.self_s": self_s("run_chunk"),
        "per_trial.self_s": self_s("per_trial"),
        "per_trial.share": _ratio(
            calls("per_trial"), calls("per_trial") + lockstep_trials
        ),
        "lockstep.width_mean": _ratio(lockstep_trials, len(lockstep)),
        "audited_trial.s": sum(s.duration for s in audited),
        "audited_trial.calls": len(audited),
        "frontier_trial.self_s": self_s("frontier_trial"),
        "lockstep.init.self_s": self_s("lockstep.init"),
        "lockstep.run.self_s": self_s("lockstep.run"),
        "lockstep.calls": len(lockstep),
        "engine.init.self_s": self_s("engine.init"),
        "engine.run.self_s": self_s("engine.run"),
        "engine.step.self_s": self_s("engine.step"),
        "engine.admit.self_s": self_s("engine.admit"),
        "engine.retire.self_s": self_s("engine.retire"),
        "engine.step.calls": calls("engine.step"),
        "sim.steps": steps,
        "sim.steps_per_s": _ratio(steps, kernel_s),
        "run_sweep.self_s": self_s("run_sweep"),
        "store.append.self_s": self_s("store.append"),
        "store.append.calls": calls("store.append"),
        "store.finalize.self_s": self_s("store.finalize"),
        "store.compact.self_s": self_s("store.compact"),
        "store.resume.self_s": self_s("store.resume"),
        "aggregate.self_s": self_s("aggregate"),
        "lease.claim.self_s": self_s("lease.claim"),
        "shard_s_p50": statistics.median(shards) if shards else 0.0,
        "run_study.self_s": self_s("run_study"),
        "run_stream.self_s": self_s("run_stream"),
        "arrivals.self_s": self_s("arrivals"),
        "random_monotone_path.self_s": self_s("random_monotone_path"),
        "windowed.self_s": self_s("windowed"),
        "trace.unattributed_share": max(0.0, wall - roots) / wall,
    }
