"""Tests for JSON serialization, multiphase composition, and new topology
orientations."""

import pytest

from repro.core import run_multiphase
from repro.errors import ReproError, WorkloadError
from repro.io import (
    load_problem,
    network_from_dict,
    network_to_dict,
    problem_from_dict,
    problem_to_dict,
    result_to_dict,
    save_problem,
)
from repro.net import (
    butterfly,
    hypercube,
    hypercube_node,
    validate_leveled,
)
from repro.paths import select_paths_random
from repro.workloads import random_many_to_one


class TestNetworkRoundtrip:
    @pytest.mark.parametrize(
        "factory", [lambda: butterfly(3), lambda: hypercube(4)]
    )
    def test_roundtrip_preserves_structure(self, factory):
        net = factory()
        clone = network_from_dict(network_to_dict(net))
        assert clone.depth == net.depth
        assert clone.num_nodes == net.num_nodes
        assert clone.num_edges == net.num_edges
        assert clone.level_sizes() == net.level_sizes()
        for v in net.nodes():
            assert clone.label(v) == net.label(v)
        assert validate_leveled(clone).ok

    def test_label_lookup_survives(self):
        net = butterfly(3)
        clone = network_from_dict(network_to_dict(net))
        assert clone.node_by_label(("bf", 1, 2)) == net.node_by_label(
            ("bf", 1, 2)
        )

    def test_kind_checked(self):
        with pytest.raises(ReproError):
            network_from_dict({"kind": "banana"})

    def test_parallel_edges_preserved(self):
        from repro.net import fat_tree

        net = fat_tree(3)
        clone = network_from_dict(network_to_dict(net))
        assert clone.num_edges == net.num_edges
        # Multiplicities survive: pick a node with fat links.
        for v in net.nodes():
            if net.out_degree(v) > 1:
                heads = net.forward_neighbors(v)
                assert clone.forward_neighbors(v) == heads
                break


class TestProblemRoundtrip:
    def test_roundtrip_preserves_paths(self, bf4_random_problem):
        clone = problem_from_dict(problem_to_dict(bf4_random_problem))
        assert clone.num_packets == bf4_random_problem.num_packets
        assert clone.congestion == bf4_random_problem.congestion
        assert clone.dilation == bf4_random_problem.dilation
        for a, b in zip(clone, bf4_random_problem):
            assert a.path.edges == b.path.edges

    def test_file_roundtrip(self, tmp_path, bf4_random_problem):
        path = tmp_path / "problem.json"
        save_problem(bf4_random_problem, path)
        clone = load_problem(path)
        assert clone.describe() == bf4_random_problem.describe()

    def test_replay_is_identical(self, tmp_path, bf4_random_problem):
        from repro.experiments import run_frontier_trial

        path = tmp_path / "problem.json"
        save_problem(bf4_random_problem, path)
        clone = load_problem(path)
        a = run_frontier_trial(bf4_random_problem, seed=9).result
        b = run_frontier_trial(clone, seed=9).result
        assert a.delivery_times == b.delivery_times

    def test_kind_checked(self):
        with pytest.raises(ReproError):
            problem_from_dict({"kind": "leveled_network"})


class TestResultRecord:
    def test_result_to_dict(self, bf4_random_problem):
        from repro.experiments import run_frontier_trial

        result = run_frontier_trial(bf4_random_problem, seed=1).result
        record = result_to_dict(result)
        assert record["kind"] == "run_result"
        assert record["delivered"] == result.delivered
        import json

        json.dumps(record)  # must be JSON-clean

    @pytest.mark.parametrize(
        "path", ["per_trial", "lockstep", "telemetry", "cache_hit"]
    )
    def test_shallow_dict_encodes_like_a_deep_copy(self, path, tmp_path):
        """``result_to_dict`` shares the result's containers instead of
        copying them; its JSON must equal that of ``asdict``'s deep copy
        for results from every path: the reference engine, a lockstep
        batch, either with telemetry counters, and the result cache."""
        import json
        from dataclasses import asdict

        from repro.experiments import catalog_spec, sweep_specs
        from repro.experiments.batch import LOCKSTEP_MIN_TRIALS, TrialExecutor

        specs = sweep_specs(catalog_spec("butterfly_hotrow"), LOCKSTEP_MIN_TRIALS)
        executor = TrialExecutor(
            cache_root=tmp_path if path == "cache_hit" else None,
            telemetry=path in ("telemetry", "cache_hit"),
            lockstep=path != "per_trial",
        )
        records = executor.run_chunk(specs)
        if path == "cache_hit":
            records = executor.run_chunk(specs)
            assert all(r.cached for r in records)
        else:
            assert all(
                r.executor.startswith("lockstep") == (path != "per_trial")
                for r in records
            )
        for record in records:
            result = record.result
            deep = {**asdict(result), "format": 1, "kind": "run_result"}
            assert json.dumps(result_to_dict(result), sort_keys=True) == (
                json.dumps(deep, sort_keys=True)
            )
            telemetered = path in ("telemetry", "cache_hit")
            assert (result.telemetry is not None) == telemetered


class TestDescendingHypercube:
    def test_descending_levels(self):
        net = hypercube(4, descending=True)
        assert validate_leveled(net).ok
        # All-ones address sits at level 0; zero at level 4.
        assert net.level(hypercube_node(net, 0b1111)) == 0
        assert net.level(hypercube_node(net, 0)) == 4

    def test_edges_clear_bits(self):
        net = hypercube(3, descending=True)
        from repro.net import hypercube_address

        for e in net.edges():
            a = hypercube_address(net, net.edge_src(e))
            b = hypercube_address(net, net.edge_dst(e))
            assert bin(a).count("1") == bin(b).count("1") + 1
            assert a & b == b  # b is a subset of a's bits


class TestMultiphase:
    def build_phases(self):
        up = hypercube(4)
        down = hypercube(4, descending=True)
        # ORs (the down-phase sources) must be pairwise distinct:
        # 0111, 1011, 1100.
        pairs = [(0b0001, 0b0110), (0b0010, 0b1001), (0b0100, 0b1000)]
        up_eps = [
            (hypercube_node(up, x), hypercube_node(up, x | y)) for x, y in pairs
        ]
        down_eps = [
            (hypercube_node(down, x | y), hypercube_node(down, y))
            for x, y in pairs
        ]
        return [
            select_paths_random(up, up_eps, seed=1),
            select_paths_random(down, down_eps, seed=2),
        ]

    def test_two_phase_hypercube(self):
        outcome = run_multiphase(self.build_phases(), seed=3, m=6, w_factor=8.0)
        assert outcome.all_delivered
        assert outcome.total_makespan == sum(
            result.makespan for result in outcome.phase_results
        )
        assert "ok" in outcome.summary()
        assert outcome.num_packets == 3

    def test_reproducible(self):
        a = run_multiphase(self.build_phases(), seed=3, m=6, w_factor=8.0)
        b = run_multiphase(self.build_phases(), seed=3, m=6, w_factor=8.0)
        assert [r.delivery_times for r in a.phase_results] == [
            r.delivery_times for r in b.phase_results
        ]

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            run_multiphase([], seed=0)


class TestRoundStats:
    def test_round_stats_collected(self, deep_random_problem):
        from repro.core import AlgorithmParams, FrontierFrameRouter
        from repro.sim import Engine

        problem = deep_random_problem
        params = AlgorithmParams.practical(
            problem.congestion, problem.net.depth, problem.num_packets,
            m=6, w=36,
        )
        router = FrontierFrameRouter(params, seed=0, collect_round_stats=True)
        engine = Engine(problem, router, seed=1, enable_fast_forward=False)
        result = engine.run(params.total_steps)
        assert result.all_delivered
        assert router.round_stats
        for phase, round_index, active, unsettled in router.round_stats:
            assert 0 <= round_index < params.m
            assert 0 <= unsettled <= active

    def test_round_stats_off_by_default(self, deep_random_problem):
        from repro.core import AlgorithmParams, FrontierFrameRouter
        from repro.sim import Engine

        problem = deep_random_problem
        params = AlgorithmParams.practical(
            problem.congestion, problem.net.depth, problem.num_packets,
            m=6, w=36,
        )
        router = FrontierFrameRouter(params, seed=0)
        Engine(problem, router, seed=1).run(params.total_steps)
        assert router.round_stats == []
