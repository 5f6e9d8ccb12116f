"""Property-based tests of frame geometry and the frontier-frame router."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AlgorithmParams,
    FrameGeometry,
    FrontierFrameRouter,
    InvariantAuditor,
    audited_run,
    resample_until_bounded,
)
from repro.net import random_leveled
from repro.paths import select_paths_random
from repro.sim import Engine
from repro.workloads import random_many_to_one


@st.composite
def geometry_params(draw):
    num_sets = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=4, max_value=12))
    depth = draw(st.integers(min_value=1, max_value=30))
    params = AlgorithmParams(
        num_sets=num_sets,
        m=m,
        w=8,
        q=0.1,
        set_congestion_bound=3.0,
        mode="practical",
        depth=depth,
        num_packets=8,
        congestion=4,
    )
    return FrameGeometry(params)


@given(geometry_params(), st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_frames_are_always_disjoint(geometry, phase):
    """No two frames ever cover the same level (Figure 2's key property)."""
    seen = {}
    for i in range(geometry.params.num_sets):
        for level in geometry.frame_levels(i, phase):
            assert level not in seen
            seen[level] = i


@given(geometry_params(), st.integers(min_value=0, max_value=200))
@settings(max_examples=100)
def test_frames_advance_one_level_per_phase(geometry, phase):
    for i in range(geometry.params.num_sets):
        assert (
            geometry.frontier(i, phase + 1) - geometry.frontier(i, phase) == 1
        )


@given(geometry_params())
@settings(max_examples=100)
def test_target_levels_recede_within_frame(geometry):
    """Targets stay inside the frame and recede one inner level per round."""
    m = geometry.m
    previous = None
    for round_index in range(m):
        inner = geometry.target_inner_level(round_index)
        assert 0 <= inner < m
        if previous is not None:
            assert inner - previous in (0, 1)
        previous = inner
    # Final round targets inner m-2: one above the injection level.
    assert geometry.target_inner_level(m - 1) == m - 2


@given(geometry_params(), st.integers(min_value=0, max_value=29))
@settings(max_examples=100)
def test_injection_phase_consistency(geometry, source_level):
    """At its injection phase, a source sits at inner-level m-1."""
    if source_level > geometry.depth:
        return
    for i in range(geometry.params.num_sets):
        phase = geometry.injection_phase(i, source_level)
        assert geometry.inner_level(i, phase, source_level) == geometry.m - 1


@st.composite
def frontier_problem(draw):
    depth = draw(st.integers(min_value=6, max_value=14))
    width = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    net = random_leveled(
        [width] * (depth + 1),
        edge_probability=0.6,
        seed=seed,
        min_out_degree=1,
        min_in_degree=1,
    )
    num = draw(st.integers(min_value=1, max_value=8))
    workload = random_many_to_one(
        net, min(num, width * depth // 2), seed=seed + 1
    )
    return select_paths_random(net, workload.endpoints, seed=seed + 2)


@given(frontier_problem(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_frontier_router_delivers_and_keeps_invariants(problem, seed):
    """Conditioned runs deliver everything with a clean audit."""
    params = AlgorithmParams.practical(
        max(1, problem.congestion),
        problem.net.depth,
        problem.num_packets,
        m=6,
        w=36,
    )
    set_of = resample_until_bounded(
        problem, params.num_sets, params.set_congestion_bound, seed=seed
    )
    router = FrontierFrameRouter(params, set_of=set_of, seed=seed)
    engine = Engine(problem, router, seed=seed + 1)
    auditor = InvariantAuditor(router, congestion_bound=params.set_congestion_bound)
    result, report = audited_run(engine, auditor)
    assert result.all_delivered
    assert report.ok, report.summary()
    assert result.unsafe_deflections == 0
    assert router.isolation_violations == 0
