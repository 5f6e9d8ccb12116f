"""Tests for the comparator algorithms."""

import pytest

from repro.baselines import (
    GreedyHotPotatoRouter,
    NaivePathRouter,
    QueuePolicy,
    RandomizedGreedyRouter,
    StoreForwardScheduler,
    random_delay_scheduler,
    run_random_delay,
)
from repro.errors import SimulationError
from repro.net import butterfly, layered_complete, layered_node, line
from repro.paths import PacketSpec, Path, RoutingProblem, select_paths_bit_fixing
from repro.sim import Engine
from repro.workloads import butterfly_workloads


@pytest.fixture
def permutation_problem():
    net = butterfly(4)
    wl = butterfly_workloads.full_permutation(net, seed=3)
    return select_paths_bit_fixing(net, wl.endpoints)


@pytest.fixture
def hot_problem():
    net = butterfly(4)
    wl = butterfly_workloads.hot_row(net, 12, seed=3)
    return select_paths_bit_fixing(net, wl.endpoints)


class TestNaive:
    def test_delivers_permutation(self, permutation_problem):
        result = Engine(permutation_problem, NaivePathRouter(), seed=0).run(5000)
        assert result.all_delivered

    def test_delivers_hot_row(self, hot_problem):
        result = Engine(hot_problem, NaivePathRouter(), seed=0).run(20000)
        assert result.all_delivered
        # Hot-row congestion forces serialization: at least C steps.
        assert result.makespan >= hot_problem.congestion


class TestGreedy:
    def test_delivers_permutation(self, permutation_problem):
        result = Engine(
            permutation_problem, GreedyHotPotatoRouter(seed=1), seed=0
        ).run(5000)
        assert result.all_delivered

    def test_delivers_hot_row(self, hot_problem):
        result = Engine(
            hot_problem, GreedyHotPotatoRouter(seed=1), seed=0
        ).run(50000)
        assert result.all_delivered

    def test_no_conflict_free_optimal(self):
        # A lone packet takes exactly dist(src, dst) steps.
        net = line(6)
        edges = [net.find_edge(i, i + 1) for i in range(6)]
        prob = RoutingProblem(net, [PacketSpec(0, 0, 6, Path(net, edges))])
        result = Engine(prob, GreedyHotPotatoRouter(seed=0), seed=0).run(100)
        assert result.makespan == 6

    def test_tie_table_reused(self, hot_problem):
        router = GreedyHotPotatoRouter(seed=1)
        Engine(hot_problem, router, seed=0).run(50000)
        # All packets share one destination: one tie table.
        assert len(hot_problem.net.routes()._ties) == 1


class TestRandomizedGreedy:
    def test_delivers_hot_row(self, hot_problem):
        router = RandomizedGreedyRouter(excite_probability=0.2, seed=1)
        result = Engine(hot_problem, router, seed=0).run(50000)
        assert result.all_delivered

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            RandomizedGreedyRouter(excite_probability=1.5)

    def test_extra_metrics(self, permutation_problem):
        router = RandomizedGreedyRouter(excite_probability=1.0, seed=1)
        result = Engine(permutation_problem, router, seed=0).run(5000)
        assert result.all_delivered
        assert "excitations" in result.extra


class TestStoreForward:
    def test_fifo_line(self):
        net = line(5)
        edges = [net.find_edge(i, i + 1) for i in range(5)]
        prob = RoutingProblem(net, [PacketSpec(0, 0, 5, Path(net, edges))])
        result = StoreForwardScheduler(prob).run()
        assert result.all_delivered
        assert result.makespan == 5

    def test_serialization_on_shared_edge(self):
        # k packets over one edge need >= k steps on that edge.
        net = layered_complete([4, 1, 1])
        mid = layered_node(net, 1, 0)
        top = layered_node(net, 2, 0)
        specs = []
        for k in range(4):
            src = layered_node(net, 0, k)
            specs.append(
                PacketSpec(
                    k, src, top,
                    Path(net, [net.find_edge(src, mid), net.find_edge(mid, top)]),
                )
            )
        prob = RoutingProblem(net, specs)
        result = StoreForwardScheduler(prob).run()
        assert result.all_delivered
        assert result.makespan == 5  # 1 step in + 4 serialized on (mid, top)
        assert result.makespan >= prob.congestion

    @pytest.mark.parametrize("policy", list(QueuePolicy))
    def test_all_policies_deliver(self, permutation_problem, policy):
        result = StoreForwardScheduler(
            permutation_problem, policy=policy, seed=5
        ).run()
        assert result.all_delivered

    def test_near_lower_bound_on_permutation(self, permutation_problem):
        result = StoreForwardScheduler(permutation_problem).run()
        bound = max(permutation_problem.congestion, permutation_problem.dilation)
        assert result.makespan <= 4 * bound + 4

    def test_queue_metrics_reported(self, hot_problem):
        result = StoreForwardScheduler(hot_problem).run()
        assert result.extra["max_queue_depth"] >= 1

    def test_delay_validation(self, hot_problem):
        with pytest.raises(SimulationError):
            StoreForwardScheduler(hot_problem, injection_delays=[1])
        with pytest.raises(SimulationError):
            StoreForwardScheduler(
                hot_problem,
                injection_delays=[-1] * hot_problem.num_packets,
            )


class TestRandomDelay:
    def test_delays_within_window(self, hot_problem):
        sched = random_delay_scheduler(hot_problem, alpha=1.0, seed=0)
        assert all(0 <= d < hot_problem.congestion for d in sched.delays)

    def test_run_convenience(self, hot_problem):
        result = run_random_delay(hot_problem, seed=0)
        assert result.all_delivered
        assert result.router_name.startswith("RandomDelay")

    def test_alpha_validated(self, hot_problem):
        with pytest.raises(ValueError):
            random_delay_scheduler(hot_problem, alpha=0)

    def test_time_near_c_plus_l(self, permutation_problem):
        result = run_random_delay(permutation_problem, seed=1)
        assert result.all_delivered
        bound = (
            permutation_problem.congestion + permutation_problem.dilation
        )
        assert result.makespan <= 3 * bound + 8
