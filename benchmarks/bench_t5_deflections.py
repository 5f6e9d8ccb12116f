"""T5 — Lemmas 2.1 and 4.10: backward, safe deflections; congestion
conservation.

Lemma 2.1: if packets are injected in isolation, every deflection is
backward and safe, and current paths stay valid.  Lemma 4.10: because safe
deflections *recycle* edges between path lists, the per-frontier-set edge
congestion ``C_i^t`` never increases.  This bench runs traced trials and
audits every deflection event.

Unlike most experiments, this one keeps its own trial loop on
:class:`~repro.sim.Engine` instead of running specs through the trial
executor: it needs a per-event :class:`~repro.sim.TraceRecorder` observer
(deflection and injection events), which executor records do not carry.
"""

from repro.analysis import format_table
from repro.core import AlgorithmParams, FrontierFrameRouter, InvariantAuditor
from repro.experiments import (
    butterfly_hotrow_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
)
from repro.scenarios import build_problem
from repro.sim import Engine, EventKind, TraceRecorder
from repro.types import Direction

from _common import emit, once, reset


def traced_run(problem, seed):
    params = AlgorithmParams.practical(
        max(1, problem.congestion),
        problem.net.depth,
        problem.num_packets,
        m=8,
        w_factor=8.0,
    )
    router = FrontierFrameRouter(params, seed=seed)
    trace = TraceRecorder(
        keep={EventKind.DEFLECT, EventKind.UNSAFE_DEFLECT, EventKind.INJECT}
    )
    engine = Engine(problem, router, seed=seed + 1, observers=[trace.on_event])
    auditor = InvariantAuditor(router)
    auditor.install(engine)
    result = engine.run(params.total_steps)
    return result, trace, auditor.report, router


def test_t5_deflection_audit(benchmark):
    reset("t5_deflections")
    rows = []
    for name, spec in [
        ("bf(5) hot-row N=20", butterfly_hotrow_spec(5, 20, seed=41)),
        ("random w=6 L=28", deep_random_spec(28, 6, 15, seed=42, low_congestion=False)),
        ("mesh 10x10 shift", mesh_corner_shift_spec(10, block=4)),
    ]:
        problem = build_problem(spec)
        result, trace, report, router = traced_run(problem, seed=5)
        assert result.all_delivered, result.summary()
        deflections = trace.of_kind(EventKind.DEFLECT)
        unsafe = trace.count(EventKind.UNSAFE_DEFLECT)
        backward = sum(
            1 for e in deflections if e.direction is Direction.BACKWARD
        )
        injections = trace.of_kind(EventKind.INJECT)
        isolated = sum(1 for e in injections if e.detail == "isolated")
        rows.append(
            (
                name,
                len(deflections) + unsafe,
                backward,
                len(deflections),  # safe ones
                unsafe,
                f"{isolated}/{len(injections)}",
                report.count("I_b"),
                report.count("I_e_conservation"),
            )
        )
        # Lemma 2.1 and Lemma 4.10, verbatim:
        assert unsafe == 0
        assert backward == len(deflections)
        assert isolated == len(injections)
        assert report.count("I_b") == 0
        assert report.count("I_e_conservation") == 0
    emit(
        "t5_deflections",
        format_table(
            [
                "instance",
                "deflections",
                "backward",
                "safe",
                "unsafe",
                "injections isolated",
                "invalid paths",
                "C_i^t growth events",
            ],
            rows,
            title="T5 (Lemmas 2.1 & 4.10): deflection audit",
            note="every deflection is backward and safe; every injection is "
            "in isolation; current paths never go invalid; per-set edge "
            "congestion never grows — exactly the lemmas' statements",
        ),
    )

    problem = build_problem(butterfly_hotrow_spec(5, 20, seed=41))
    once(benchmark, traced_run, problem, 5)
