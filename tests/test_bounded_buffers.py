"""Tests for the bounded-buffer store-and-forward scheduler."""

import pytest

from repro.baselines import BoundedBufferScheduler, StoreForwardScheduler
from repro.errors import SimulationError
from repro.experiments import funnel_spec, mesh_corner_shift_spec
from repro.net import layered_complete, layered_node, line
from repro.paths import PacketSpec, Path, RoutingProblem
from repro.scenarios import build_problem


@pytest.fixture
def chain_problem():
    """Four packets sharing one long line: heavy backpressure."""
    net = line(6)
    edges = [net.find_edge(i, i + 1) for i in range(6)]
    # Distinct sources along the line, all to the end node.
    specs = [
        PacketSpec(k, k, 6, Path(net, edges[k:])) for k in range(4)
    ]
    return RoutingProblem(net, specs)


class TestBasics:
    def test_single_packet_exact_time(self):
        net = line(5)
        edges = [net.find_edge(i, i + 1) for i in range(5)]
        prob = RoutingProblem(net, [PacketSpec(0, 0, 5, Path(net, edges))])
        result = BoundedBufferScheduler(prob, buffer_size=1).run()
        assert result.all_delivered
        # 1 injection step + 5 hops: the packet enters its first buffer at
        # t=0 and moves from t=1, arriving at t=5... measured exactly:
        assert result.makespan == 6

    def test_buffer_size_validated(self, chain_problem):
        with pytest.raises(SimulationError):
            BoundedBufferScheduler(chain_problem, buffer_size=0)

    def test_chain_completes_for_every_k(self, chain_problem):
        times = {}
        for k in (1, 2, 3, 8):
            result = BoundedBufferScheduler(chain_problem, buffer_size=k).run()
            assert result.all_delivered, (k, result.summary())
            times[k] = result.makespan
        # Larger buffers can only help (weak monotonicity on this chain).
        assert times[8] <= times[1]

    def test_occupancy_respects_capacity(self, chain_problem):
        for k in (1, 2, 3):
            sched = BoundedBufferScheduler(chain_problem, buffer_size=k)
            while not sched.done and sched.t < 1000:
                sched.step()
                assert all(
                    len(buf) <= k for buf in sched.buffers.values()
                ), f"buffer overflow at k={k}, t={sched.t}"
            assert sched.done


class TestNoDeadlock:
    """Backpressure on a leveled DAG cannot deadlock (drain argument)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_funnel_drains(self, k):
        problem = build_problem(funnel_spec(5, 10, seed=3))
        result = BoundedBufferScheduler(problem, buffer_size=k, seed=0).run()
        assert result.all_delivered, result.summary()

    @pytest.mark.parametrize("k", [1, 2])
    def test_corner_shift_drains(self, k):
        problem = build_problem(mesh_corner_shift_spec(8))
        result = BoundedBufferScheduler(problem, buffer_size=k, seed=0).run()
        assert result.all_delivered, result.summary()

    def test_extreme_gadget_drains(self):
        # 8 sources through a 2-node bottleneck with k=1.
        net = layered_complete([8, 2, 1])
        top = layered_node(net, 2, 0)
        specs = []
        for i in range(8):
            src = layered_node(net, 0, i)
            mid = layered_node(net, 1, i % 2)
            specs.append(
                PacketSpec(
                    i, src, top,
                    Path(net, [net.find_edge(src, mid), net.find_edge(mid, top)]),
                )
            )
        problem = RoutingProblem(net, specs)
        result = BoundedBufferScheduler(problem, buffer_size=1).run()
        assert result.all_delivered
        # Serialization bound: 8 packets over the 2->1 cut of capacity 2...
        # one packet per (mid, top) edge per step, 4 each: >= 4 + 2 steps.
        assert result.makespan >= 6


class TestConvergenceToUnbounded:
    def test_large_k_matches_unbounded(self):
        problem = build_problem(funnel_spec(5, 10, seed=4))
        bounded = BoundedBufferScheduler(
            problem, buffer_size=problem.num_packets + 1, seed=0
        ).run()
        unbounded = StoreForwardScheduler(problem, seed=0).run()
        assert bounded.all_delivered and unbounded.all_delivered
        # With buffers larger than the packet population, backpressure
        # never binds; times agree up to the 1-step injection offset.
        assert abs(bounded.makespan - unbounded.makespan) <= 1
        assert bounded.extra["blocked_steps"] == 0

    def test_makespan_at_least_lower_bound(self):
        problem = build_problem(funnel_spec(5, 10, seed=5))
        for k in (1, 4):
            result = BoundedBufferScheduler(problem, buffer_size=k).run()
            assert result.makespan >= problem.lower_bound
