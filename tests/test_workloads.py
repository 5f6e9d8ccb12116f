"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.net import butterfly, mesh, mesh_coords
from repro.paths import select_paths_bit_fixing, select_paths_dimension_order
from repro.workloads import (
    Workload,
    butterfly_workloads,
    end_to_end_permutation,
    funnel_through_edge,
    hotspot,
    level_to_level,
    max_dilation_chain,
    mesh_workloads,
    random_forward_destination,
    random_many_to_one,
    single_destination,
)


class TestWorkloadModel:
    def test_duplicate_source_rejected(self, bf4):
        src = bf4.nodes_at_level(0)[0]
        dst = bf4.nodes_at_level(4)[0]
        with pytest.raises(WorkloadError):
            Workload("bad", bf4, ((src, dst), (src, dst)))

    def test_self_loop_rejected(self, bf4):
        src = bf4.nodes_at_level(0)[0]
        with pytest.raises(WorkloadError):
            Workload("bad", bf4, ((src, src),))

    def test_backward_pair_rejected(self, bf4):
        lo = bf4.nodes_at_level(0)[0]
        hi = bf4.nodes_at_level(2)[0]
        with pytest.raises(WorkloadError):
            Workload("bad", bf4, ((hi, lo),))

    def test_to_problem_default_selector(self, bf4):
        wl = random_many_to_one(bf4, 8, seed=0)
        prob = wl.to_problem(seed=1)
        assert prob.num_packets == 8


class TestGenerators:
    def test_random_many_to_one_sources_distinct(self, deep_random):
        wl = random_many_to_one(deep_random, 15, seed=1)
        sources = [s for s, _ in wl.endpoints]
        assert len(set(sources)) == 15

    def test_random_many_to_one_respects_levels(self, deep_random):
        wl = random_many_to_one(
            deep_random, 5, seed=1, source_levels=[0, 1], min_dest_level=10
        )
        for src, dst in wl.endpoints:
            assert deep_random.level(src) <= 1
            assert deep_random.level(dst) >= 10

    def test_permutation_is_bijection(self, bf4):
        wl = end_to_end_permutation(bf4, seed=2)
        sources = {s for s, _ in wl.endpoints}
        dests = {d for _, d in wl.endpoints}
        assert len(sources) == 16
        assert len(dests) == 16

    def test_permutation_needs_matching_levels(self, mesh55):
        # Mesh levels 0 and L both have one node; trivial but legal ...
        wl = end_to_end_permutation(mesh55, seed=0)
        assert wl.num_packets == 1

    def test_hotspot_concentrates(self, bf4):
        wl = hotspot(bf4, 10, num_hotspots=2, seed=3)
        dests = {d for _, d in wl.endpoints}
        assert len(dests) <= 2

    def test_hotspot_too_many_rejected(self, bf4):
        with pytest.raises(WorkloadError):
            hotspot(bf4, 5, num_hotspots=99, seed=0)

    def test_single_destination(self, bf4):
        wl = single_destination(bf4, 9, seed=4)
        dests = {d for _, d in wl.endpoints}
        assert len(dests) == 1
        prob = select_paths_bit_fixing(bf4, wl.endpoints)
        assert prob.congestion >= 3  # funneling into <= 2 in-edges

    def test_level_to_level(self, bf4):
        wl = level_to_level(bf4, 6, 1, 3, seed=5)
        for src, dst in wl.endpoints:
            assert bf4.level(src) == 1
            assert bf4.level(dst) == 3

    def test_level_to_level_validation(self, bf4):
        with pytest.raises(WorkloadError):
            level_to_level(bf4, 4, 3, 1, seed=0)

    def test_too_many_packets_rejected(self, bf4):
        with pytest.raises(WorkloadError):
            random_many_to_one(bf4, 10_000, seed=0)

    def test_forward_destination_levels(self, split_net):
        net, ids = split_net
        s, t, u, v, x = (ids[name] for name in "stuvx")
        rng = np.random.default_rng(0)
        assert random_forward_destination(net, t, rng) == x
        # A floor at or below the source's level still means "above it".
        picks = {random_forward_destination(net, s, rng, min_level=0) for _ in range(20)}
        assert picks == {u, v}
        assert random_forward_destination(net, s, rng, min_level=2) == v
        with pytest.raises(WorkloadError, match=f"from source {t} at level >= 2"):
            random_forward_destination(net, t, rng, min_level=2)
        with pytest.raises(WorkloadError, match=f"from source {v} at level >= 3"):
            random_forward_destination(net, v, rng)


class TestAdversarial:
    def test_funnel_congestion_equals_n(self, bf4):
        prob = funnel_through_edge(bf4, 10, seed=0)
        assert prob.congestion >= 10

    def test_funnel_explicit_edge(self, bf4):
        # Pick an edge with a deep tail so several feeders exist.
        edge = next(
            e for e in bf4.edges() if bf4.level(bf4.edge_src(e)) == 3
        )
        prob = funnel_through_edge(bf4, 4, edge=edge, seed=0)
        for spec in prob:
            assert spec.path.contains_edge(edge)

    def test_funnel_too_many_rejected(self, bf4):
        edge = next(e for e in bf4.edges() if bf4.level(bf4.edge_src(e)) == 0)
        with pytest.raises(WorkloadError):
            funnel_through_edge(bf4, 3, edge=edge, seed=0)

    def test_max_dilation(self, bf4):
        endpoints, dilation = max_dilation_chain(bf4, 3, seed=0)
        assert dilation == 4
        assert len(endpoints) == 3
        for src, dst in endpoints:
            assert bf4.level(src) == 0
            assert bf4.level(dst) == 4

    def test_max_dilation_too_many(self, line8):
        with pytest.raises(WorkloadError):
            max_dilation_chain(line8, 5, seed=0)


class TestMeshWorkloads:
    def test_monotone_random_pairs(self):
        net = mesh(6, 6)
        wl = mesh_workloads.monotone_random_pairs(net, 12, seed=1)
        assert mesh_workloads.is_monotone_workload(wl)
        prob = select_paths_dimension_order(net, wl.endpoints)
        assert prob.num_packets == 12

    def test_min_displacement(self):
        net = mesh(6, 6)
        wl = mesh_workloads.monotone_random_pairs(
            net, 8, seed=2, min_displacement=4
        )
        for src, dst in wl.endpoints:
            si, sj = mesh_coords(net, src)
            di, dj = mesh_coords(net, dst)
            assert (di - si) + (dj - sj) >= 4

    def test_corner_shift(self):
        net = mesh(8, 8)
        wl = mesh_workloads.corner_shift(net, block=3)
        assert wl.num_packets == 9
        assert mesh_workloads.is_monotone_workload(wl)
        prob = select_paths_dimension_order(net, wl.endpoints)
        # Every packet crosses the full span.
        assert prob.dilation >= 8

    def test_corner_shift_block_validated(self):
        net = mesh(4, 4)
        with pytest.raises(WorkloadError):
            mesh_workloads.corner_shift(net, block=9)


class TestButterflyWorkloads:
    def test_random_end_to_end(self, bf4):
        wl = butterfly_workloads.random_end_to_end(bf4, seed=1)
        assert wl.num_packets == 16

    def test_full_permutation_bijective(self, bf4):
        wl = butterfly_workloads.full_permutation(bf4, seed=1)
        assert len({d for _, d in wl.endpoints}) == 16

    def test_hot_row_congestion(self, bf4):
        wl = butterfly_workloads.hot_row(bf4, 12, seed=1)
        prob = select_paths_bit_fixing(bf4, wl.endpoints)
        # Paths converge on the target row's two in-edges: the busier one
        # carries at least half the packets.
        assert prob.congestion >= 6

    def test_bit_complement(self, bf4):
        wl = butterfly_workloads.bit_complement(bf4)
        assert wl.num_packets == 16
        prob = select_paths_bit_fixing(bf4, wl.endpoints)
        assert prob.dilation == 4

    def test_too_many_rejected(self, bf4):
        with pytest.raises(WorkloadError):
            butterfly_workloads.hot_row(bf4, 99, seed=0)
