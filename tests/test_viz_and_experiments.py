"""Tests for visualization helpers and the experiment runner."""

import pytest

from repro.core import AlgorithmParams, FrameGeometry
from repro.experiments import (
    baseline_budget,
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
    mesh_monotone_spec,
    run_frontier_trial,
    run_router_trial,
)
from repro.scenarios import build_problem
from repro.sim import Engine
from repro.viz import (
    OccupancySampler,
    frame_film_strip,
    frame_snapshot,
    occupancy_strip,
    target_schedule_strip,
)


@pytest.fixture
def geometry():
    return FrameGeometry(AlgorithmParams.practical(4, 10, 16, m=4, w=8))


class TestViz:
    def test_snapshot_mentions_frames(self, geometry):
        text = frame_snapshot(geometry, phase=5)
        assert "F0" in text

    def test_film_strip_shape(self, geometry):
        text = frame_film_strip(geometry, 0, 6)
        lines = text.splitlines()
        assert len(lines) == 2 + 7  # header + separator + 7 phases
        # Frame 0's frontier marker advances one level per phase.
        for offset, line in enumerate(lines[2:]):
            row = line.split("| ")[1]
            assert row[offset] == ">"

    def test_film_strip_no_overlap_marks(self, geometry):
        # Each column has at most one frame digit per row by construction;
        # just check rendering doesn't blow up over the full schedule.
        text = frame_film_strip(geometry)
        assert text

    def test_target_schedule(self, geometry):
        text = target_schedule_strip(geometry, 0, 6)
        lines = text.splitlines()
        assert len(lines) == 1 + geometry.m
        for line in lines[1:]:
            assert line.count("T") <= 1

    def test_occupancy_sampler(self, bf4_random_problem):
        from repro.baselines import NaivePathRouter

        sampler = OccupancySampler(every=1)
        engine = Engine(bf4_random_problem, NaivePathRouter(), seed=0)
        sampler.install(engine)
        engine.run(100)
        assert sampler.samples
        strip = occupancy_strip(sampler)
        assert "occupancy" in strip

    def test_occupancy_empty(self):
        assert "(no samples)" in occupancy_strip(OccupancySampler())

    def test_sampler_interval_validation(self):
        with pytest.raises(ValueError):
            OccupancySampler(every=0)


class TestRunner:
    def test_run_frontier_trial_defaults(self):
        problem = build_problem(butterfly_random_spec(3, seed=1))
        record = run_frontier_trial(problem, seed=2)
        assert record.result.all_delivered
        assert record.ok
        assert record.audit is None

    def test_run_frontier_trial_audited(self):
        problem = build_problem(butterfly_random_spec(3, seed=1))
        record = run_frontier_trial(
            problem, seed=2, audit=True, condition_sets=True
        )
        assert record.ok
        assert record.audit is not None and record.audit.ok

    def test_trials_reproducible(self):
        problem = build_problem(butterfly_random_spec(3, seed=1))
        a = run_frontier_trial(problem, seed=7).result
        b = run_frontier_trial(problem, seed=7).result
        assert a.delivery_times == b.delivery_times

    def test_run_router_trial(self):
        from repro.baselines import GreedyHotPotatoRouter

        problem = build_problem(butterfly_random_spec(3, seed=1))
        result = run_router_trial(
            problem,
            lambda seed: GreedyHotPotatoRouter(seed=seed),
            seed=2,
            max_steps=baseline_budget(problem),
        )
        assert result.all_delivered


class TestConfigs:
    def test_hotrow_instance_congestion_scales(self):
        small = build_problem(butterfly_hotrow_spec(5, 4, seed=1))
        big = build_problem(butterfly_hotrow_spec(5, 24, seed=1))
        assert big.congestion > small.congestion

    def test_deep_instance_depth(self):
        prob = build_problem(deep_random_spec(18, 5, 8, seed=0))
        assert prob.net.depth == 18
        assert prob.num_packets == 8

    def test_mesh_instances(self):
        prob = build_problem(mesh_monotone_spec(6, 10, seed=0))
        assert prob.num_packets == 10
        shift = build_problem(mesh_corner_shift_spec(6))
        assert shift.num_packets == 9

    def test_baseline_budget_scales(self):
        small = build_problem(butterfly_hotrow_spec(4, 4, seed=1))
        big = build_problem(butterfly_hotrow_spec(4, 16, seed=1))
        assert baseline_budget(big) > baseline_budget(small)
