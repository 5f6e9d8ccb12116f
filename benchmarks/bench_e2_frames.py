"""E2 — Figure 2: frontier-frame geometry.

Figure 2 depicts the frontier-frames on a leveled network: bands of ``m``
inner-levels pipelined ``m`` levels apart, shifting one level forward per
phase, with the target level receding inside each frame round by round.
This bench (a) verifies those properties over a full schedule, (b) renders
the film-strip reproduction of the figure, and (c) traces a live run to
show the packets actually riding their frames.
"""

from repro.analysis import format_table
from repro.core import AlgorithmParams, FrameGeometry
from repro.experiments import deep_random_spec
from repro.viz import frame_film_strip, target_schedule_strip

from _common import emit, once, reset, run_pinned


def test_e2_frame_geometry(benchmark):
    reset("e2_frames")
    params = AlgorithmParams.practical(6, 16, 24, m=4, w=8)
    geometry = FrameGeometry(params)

    # Property audit over the whole schedule.
    overlaps = 0
    for phase in range(params.total_phases + 1):
        seen = set()
        for i in range(params.num_sets):
            for level in geometry.frame_levels(i, phase):
                if level in seen:
                    overlaps += 1
                seen.add(level)
    assert overlaps == 0

    strip = frame_film_strip(geometry, 0, min(20, params.total_phases))
    emit(
        "e2_frames",
        "E2 (Figure 2): frontier-frames sweeping a leveled network "
        f"(num_sets={params.num_sets}, m={params.m}, L={params.depth})\n"
        + strip,
    )
    emit("e2_frames", target_schedule_strip(geometry, 0, phase=10))

    rows = [
        (
            i,
            geometry.injection_phase(i, 0),
            geometry.exit_phase(i),
            f"{params.m}",
        )
        for i in range(params.num_sets)
    ]
    emit(
        "e2_frames",
        format_table(
            ["frame", "first injection phase", "exit phase", "inner levels"],
            rows,
            title="frame schedule (pipelined m phases apart, disjoint)",
        ),
    )

    def audit_schedule():
        for phase in range(params.total_phases + 1):
            seen = set()
            for i in range(params.num_sets):
                for level in geometry.frame_levels(i, phase):
                    assert level not in seen
                    seen.add(level)

    once(benchmark, audit_schedule)


def test_e2_packets_ride_frames(benchmark):
    """Live confirmation: every active packet is inside its frame (I_c)."""
    spec = deep_random_spec(
        20, 6, 14, seed=4, audit=True, condition_sets=True, m=6, w=36
    )
    problem, (record,) = once(benchmark, run_pinned, spec, [5])
    assert record.result.all_delivered
    assert record.audit.count("I_c") == 0
    emit(
        "e2_frames",
        f"live run on {problem.describe()}: delivered="
        f"{record.result.delivered}/{record.result.num_packets}, "
        f"I_c violations={record.audit.count('I_c')} "
        f"(packets stayed inside their frames throughout)",
    )
