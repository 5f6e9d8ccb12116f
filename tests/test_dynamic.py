"""Tests for dynamic (continuous-injection) routing: Bernoulli arrivals
materialized into schedule-carrying problems, routed by the static
deflection routers, and summarized by the latency metrics of
:mod:`repro.traffic`."""

import math

import pytest

from repro.baselines import GreedyHotPotatoRouter, NaivePathRouter
from repro.errors import WorkloadError
from repro.net import butterfly
from repro.sim import Engine
from repro.traffic import (
    Arrival,
    ArrivalSchedule,
    BernoulliSource,
    collect_arrivals,
    dynamic_stats,
    offered_load,
    problem_from_arrivals,
)


@pytest.fixture
def net():
    return butterfly(3)


def draw_arrivals(net, rate, horizon, seed=None, **kwargs):
    """A Bernoulli source materialized over its horizon."""
    return collect_arrivals(
        BernoulliSource(net, rate, seed=seed, horizon=horizon, **kwargs)
    )


def _fixture_result(delivery_times, delivered):
    """A minimal RunResult for hand-computed metric fixtures."""
    from repro.sim import RunResult

    n = len(delivery_times)
    return RunResult(
        router_name="fixture",
        network_name="fixture",
        num_packets=n,
        congestion=1,
        dilation=1,
        depth=3,
        delivered=delivered,
        makespan=max((t for t in delivery_times if t is not None), default=0),
        steps_executed=0,
        steps_skipped=0,
        delivery_times=list(delivery_times),
        deflections_per_packet=[0] * n,
        unsafe_deflections=0,
        total_moves=0,
        total_backward_moves=0,
    )


class TestArrivals:
    def test_rate_controls_volume(self, net):
        low = draw_arrivals(net, 0.05, horizon=200, seed=1)
        high = draw_arrivals(net, 0.5, horizon=200, seed=1)
        assert len(high) > 3 * len(low)

    def test_arrival_fields_valid(self, net):
        for arrival in draw_arrivals(net, 0.2, horizon=50, seed=2):
            assert 0 <= arrival.time < 50
            assert net.level(arrival.destination) > net.level(arrival.source)

    def test_source_levels_respected(self, net):
        arrivals = draw_arrivals(
            net, 0.3, horizon=50, seed=3, source_levels=[0]
        )
        assert arrivals
        assert all(net.level(a.source) == 0 for a in arrivals)

    def test_min_hops(self, net):
        arrivals = draw_arrivals(net, 0.3, horizon=50, seed=4, min_hops=3)
        assert all(
            net.level(a.destination) - net.level(a.source) >= 3
            for a in arrivals
        )

    def test_rate_validated(self, net):
        with pytest.raises(WorkloadError):
            draw_arrivals(net, 1.5, horizon=10)
        with pytest.raises(WorkloadError):
            draw_arrivals(net, 0.1, horizon=0)

    def test_reproducible(self, net):
        a = draw_arrivals(net, 0.2, horizon=100, seed=9)
        b = draw_arrivals(net, 0.2, horizon=100, seed=9)
        assert a == b

    def test_offered_load_monotone(self, net):
        low = draw_arrivals(net, 0.05, horizon=100, seed=1)
        high = draw_arrivals(net, 0.5, horizon=100, seed=1)
        assert offered_load(net, high, 100) > offered_load(net, low, 100)


class TestProblemConversion:
    def test_multi_source_allowed(self, net):
        arrivals = [
            Arrival(0, net.nodes_at_level(0)[0], net.nodes_at_level(3)[0]),
            Arrival(5, net.nodes_at_level(0)[0], net.nodes_at_level(3)[1]),
        ]
        problem, times = problem_from_arrivals(net, arrivals, seed=0)
        assert problem.num_packets == 2
        assert times == [0, 5]


class TestDynamicRouting:
    @pytest.mark.parametrize(
        "router_cls", [NaivePathRouter, GreedyHotPotatoRouter]
    )
    def test_packets_respect_arrival_times(self, net, router_cls):
        arrivals = draw_arrivals(net, 0.2, horizon=60, seed=5)
        problem, times = problem_from_arrivals(net, arrivals, seed=6)
        router = (
            router_cls() if router_cls is NaivePathRouter else router_cls(seed=7)
        )
        engine = Engine(problem, router, seed=8)
        result = engine.run(60 + 5000)
        assert result.all_delivered
        for pid, packet in enumerate(engine.packets):
            assert packet.injected_at >= times[pid]

    def test_high_load_does_not_crash(self, net):
        """Regression: pending injections must never starve deflected
        residents of slots (the revocation rule)."""
        arrivals = draw_arrivals(net, 0.9, horizon=100, seed=11)
        problem, times = problem_from_arrivals(net, arrivals, seed=12)
        engine = Engine(problem, NaivePathRouter(), seed=13)
        result = engine.run(100 + 30000)
        assert result.all_delivered
        assert result.unsafe_deflections == 0

    def test_latency_grows_with_load(self, net):
        stats_by_rate = {}
        for rate in (0.1, 0.8):
            arrivals = draw_arrivals(net, rate, horizon=150, seed=21)
            problem, times = problem_from_arrivals(net, arrivals, seed=22)
            engine = Engine(problem, NaivePathRouter(), seed=23)
            result = engine.run(150 + 30000)
            assert result.all_delivered
            stats_by_rate[rate] = dynamic_stats(
                result, times, [len(s.path) for s in problem]
            )
        assert (
            stats_by_rate[0.8].mean_latency > stats_by_rate[0.1].mean_latency
        )

    def test_schedule_length_validated(self, net):
        arrivals = draw_arrivals(net, 0.2, horizon=30, seed=31)
        problem, times = problem_from_arrivals(net, arrivals, seed=32)
        problem.arrival_schedule = ArrivalSchedule(times[:-1])
        with pytest.raises(WorkloadError):
            Engine(problem, NaivePathRouter(), seed=33)

    def test_negative_times_rejected(self):
        with pytest.raises(WorkloadError):
            ArrivalSchedule([-1, 0])


class TestDynamicStats:
    def test_stats_fields(self, net):
        arrivals = draw_arrivals(net, 0.2, horizon=50, seed=41)
        problem, times = problem_from_arrivals(net, arrivals, seed=42)
        engine = Engine(problem, NaivePathRouter(), seed=43)
        result = engine.run(50 + 5000)
        stats = dynamic_stats(result, times, [len(s.path) for s in problem])
        assert stats.drained
        assert stats.offered == problem.num_packets
        assert stats.mean_hop_stretch >= 1.0
        assert stats.p50_latency <= stats.p95_latency <= stats.max_latency
        assert len(stats.as_row()) == 7

    def test_undelivered_handled(self, net):
        arrivals = draw_arrivals(net, 0.2, horizon=50, seed=51)
        problem, times = problem_from_arrivals(net, arrivals, seed=52)
        engine = Engine(problem, NaivePathRouter(), seed=53)
        result = engine.run(3)  # cut off early
        stats = dynamic_stats(result, times)
        assert not stats.drained

    def test_zero_delivered(self):
        """All-NaN latencies, not a crash, when nothing got through."""
        result = _fixture_result(delivery_times=[None, None], delivered=0)
        stats = dynamic_stats(result, [0, 1], [2, 2])
        assert stats.offered == 2
        assert stats.delivered == 0
        assert not stats.drained
        assert math.isnan(stats.mean_latency)
        assert math.isnan(stats.p50_latency)
        assert math.isnan(stats.p95_latency)
        assert math.isnan(stats.max_latency)
        assert math.isnan(stats.mean_hop_stretch)
        assert stats.as_row()[2] == "NO"

    def test_single_step_run(self, net):
        """A run cut off after one step is summarized, mostly undelivered."""
        arrivals = draw_arrivals(net, 0.3, horizon=20, seed=61)
        problem, times = problem_from_arrivals(net, arrivals, seed=62)
        engine = Engine(problem, NaivePathRouter(), seed=63)
        result = engine.run(1)
        stats = dynamic_stats(result, times, [len(s.path) for s in problem])
        assert stats.offered == problem.num_packets
        assert stats.delivered == result.delivered
        assert not stats.drained

    def test_percentiles_hand_computed(self):
        """Latency percentiles against a hand-computed fixture.

        Arrivals [0, 10, 0, 5], deliveries [4, 16, 9, 13] give latencies
        [4, 6, 9, 8]; with numpy's linear interpolation the quantiles of
        sorted [4, 6, 8, 9] are p50 = 7.0 and p95 = 8.85.
        """
        result = _fixture_result(delivery_times=[4, 16, 9, 13], delivered=4)
        stats = dynamic_stats(result, [0, 10, 0, 5], [2, 3, 3, 4])
        assert stats.drained
        assert stats.mean_latency == pytest.approx(6.75)
        assert stats.p50_latency == pytest.approx(7.0)
        assert stats.p95_latency == pytest.approx(8.85)
        assert stats.max_latency == 9.0
        # stretches: 4/2, 6/3, 9/3, 8/4 -> mean of [2, 2, 3, 2] = 2.25
        assert stats.mean_hop_stretch == pytest.approx(2.25)

    def test_partial_delivery_skips_lost_packets(self):
        result = _fixture_result(delivery_times=[3, None, 7], delivered=2)
        stats = dynamic_stats(result, [0, 0, 2], [3, 3, 3])
        assert stats.delivered == 2
        assert stats.mean_latency == pytest.approx(4.0)  # [3, 5]
        assert stats.max_latency == 5.0


class TestOfferedLoad:
    def test_zero_arrivals(self, net):
        assert offered_load(net, [], 100) == 0.0

    def test_counts_per_step_per_edge(self, net):
        lo = net.nodes_at_level(0)[0]
        hi = net.nodes_at_level(3)[0]
        arrivals = [Arrival(t, lo, hi) for t in range(10)]
        # 10 packets x 3 hops over 10 steps on num_edges forward edges
        assert offered_load(net, arrivals, 10) == pytest.approx(
            3.0 / net.num_edges
        )
        # Halving the horizon doubles the per-step load.
        assert offered_load(net, arrivals, 5) == pytest.approx(
            6.0 / net.num_edges
        )

    def test_horizon_validated(self, net):
        with pytest.raises(WorkloadError):
            offered_load(net, [], 0)
