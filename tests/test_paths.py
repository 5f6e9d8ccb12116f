"""Unit tests for Path, validity, and path selection."""

import numpy as np
import pytest

from repro.errors import PathError, WorkloadError
from repro.net import butterfly, butterfly_node, layered_complete, line, mesh, mesh_node
from repro.paths import (
    PacketSpec,
    Path,
    RoutingProblem,
    bit_fixing_path,
    dimension_order_path,
    first_monotone_path,
    is_valid_edge_sequence,
    min_bottleneck_path,
    monotone_classes,
    paths_through_edge,
    random_monotone_path,
    select_paths_bit_fixing,
    select_paths_bottleneck,
    select_paths_dimension_order,
    select_paths_random,
    select_paths_valiant,
    valiant_path,
)


class TestPath:
    def test_basic_path(self, line8):
        edges = [line8.find_edge(i, i + 1) for i in range(4)]
        path = Path(line8, edges)
        assert len(path) == 4
        assert path.source == 0
        assert path.destination == 4
        assert path.nodes == (0, 1, 2, 3, 4)

    def test_empty_path_needs_source(self, line8):
        with pytest.raises(PathError):
            Path(line8, [])
        p = Path(line8, [], source=2)
        assert len(p) == 0
        assert p.source == p.destination == 2

    def test_broken_chain_rejected(self, line8):
        e0 = line8.find_edge(0, 1)
        e2 = line8.find_edge(2, 3)
        with pytest.raises(PathError):
            Path(line8, [e0, e2])

    def test_source_mismatch_rejected(self, line8):
        e0 = line8.find_edge(0, 1)
        with pytest.raises(PathError):
            Path(line8, [e0], source=5)

    def test_node_at_level(self, line8):
        edges = [line8.find_edge(i, i + 1) for i in range(2, 6)]
        path = Path(line8, edges)
        assert path.node_at_level(line8, 4) == 4
        assert path.node_at_level(line8, 1) is None
        assert path.node_at_level(line8, 7) is None
        assert path.node_at_level(line8, 2) == 2
        assert path.node_at_level(line8, 6) == 6

    def test_subpath_from(self, line8):
        edges = [line8.find_edge(i, i + 1) for i in range(5)]
        path = Path(line8, edges)
        sub = path.subpath_from(line8, 2)
        assert sub.source == 2
        assert sub.destination == 5
        with pytest.raises(PathError):
            path.subpath_from(line8, 7)

    def test_equality_and_hash(self, line8):
        e = [line8.find_edge(0, 1)]
        assert Path(line8, e) == Path(line8, e)
        assert hash(Path(line8, e)) == hash(Path(line8, e))
        assert Path(line8, e) != Path(line8, [], source=0)

    def test_contains_edge(self, line8):
        e0 = line8.find_edge(0, 1)
        e1 = line8.find_edge(1, 2)
        path = Path(line8, [e0])
        assert path.contains_edge(e0)
        assert not path.contains_edge(e1)


class TestValidity:
    def test_valid_sequence(self, line8):
        edges = [line8.find_edge(i, i + 1) for i in range(3)]
        assert is_valid_edge_sequence(line8, edges, 0)
        assert not is_valid_edge_sequence(line8, edges, 1)

    def test_empty_sequence_valid(self, line8):
        assert is_valid_edge_sequence(line8, [], 3)


class TestRandomMonotone:
    def test_reaches_destination(self, bf4):
        rng = np.random.default_rng(0)
        src = bf4.nodes_at_level(0)[3]
        dst = bf4.nodes_at_level(4)[9]
        for _ in range(5):
            path = random_monotone_path(bf4, src, dst, rng)
            assert path.source == src
            assert path.destination == dst
            assert len(path) == 4

    def test_unreachable_raises(self):
        net = layered_complete([2, 2])
        src = net.nodes_at_level(1)[0]
        dst = net.nodes_at_level(0)[0]
        with pytest.raises(PathError):
            random_monotone_path(net, src, dst, np.random.default_rng(0))

    def test_first_monotone_deterministic(self, bf4):
        src = bf4.nodes_at_level(0)[0]
        dst = bf4.nodes_at_level(4)[5]
        assert first_monotone_path(bf4, src, dst) == first_monotone_path(
            bf4, src, dst
        )


class TestBitFixing:
    def test_unique_path_matches_expectation(self):
        net = butterfly(3)
        src = butterfly_node(net, 0, 0b000)
        dst = butterfly_node(net, 3, 0b101)
        path = bit_fixing_path(net, src, dst)
        rows = [net.label(v)[2] for v in path.nodes]
        assert rows == [0b000, 0b100, 0b100, 0b101]

    def test_partial_levels(self):
        net = butterfly(3)
        src = butterfly_node(net, 1, 0b010)
        dst = butterfly_node(net, 3, 0b011)
        path = bit_fixing_path(net, src, dst)
        assert len(path) == 2

    def test_unreachable_row_rejected(self):
        net = butterfly(3)
        # From level 1, the top bit can no longer change.
        src = butterfly_node(net, 1, 0b000)
        dst = butterfly_node(net, 3, 0b100)
        with pytest.raises(PathError):
            bit_fixing_path(net, src, dst)

    def test_backward_rejected(self):
        net = butterfly(3)
        with pytest.raises(PathError):
            bit_fixing_path(
                net, butterfly_node(net, 2, 0), butterfly_node(net, 0, 0)
            )

    def test_selector(self, bf4):
        endpoints = [
            (butterfly_node(bf4, 0, r), butterfly_node(bf4, 4, r ^ 0b1111))
            for r in range(16)
        ]
        prob = select_paths_bit_fixing(bf4, endpoints)
        assert prob.num_packets == 16
        assert prob.dilation == 4


class TestDimensionOrder:
    def test_row_first(self, mesh55):
        src = mesh_node(mesh55, 0, 0)
        dst = mesh_node(mesh55, 2, 3)
        path = dimension_order_path(mesh55, src, dst, row_first=True)
        assert len(path) == 5
        # Row-first: second node is (0, 1).
        assert mesh55.label(path.nodes[1]) == ("mesh", 0, 1)

    def test_column_first(self, mesh55):
        src = mesh_node(mesh55, 0, 0)
        dst = mesh_node(mesh55, 2, 3)
        path = dimension_order_path(mesh55, src, dst, row_first=False)
        assert mesh55.label(path.nodes[1]) == ("mesh", 1, 0)

    def test_non_monotone_rejected(self, mesh55):
        with pytest.raises(PathError):
            dimension_order_path(
                mesh55, mesh_node(mesh55, 2, 2), mesh_node(mesh55, 1, 3)
            )

    def test_monotone_classes_partition(self, mesh55):
        pairs = [
            (mesh_node(mesh55, 0, 0), mesh_node(mesh55, 2, 2)),  # down-right
            (mesh_node(mesh55, 0, 4), mesh_node(mesh55, 2, 1)),  # down-left
            (mesh_node(mesh55, 4, 0), mesh_node(mesh55, 1, 2)),  # up-right
            (mesh_node(mesh55, 4, 4), mesh_node(mesh55, 1, 1)),  # up-left
        ]
        classes = monotone_classes(mesh55, pairs)
        assert [len(c) for c in classes] == [1, 1, 1, 1]

    def test_selector_congestion_dilation_order_n(self):
        net = mesh(6, 6)
        endpoints = [
            (mesh_node(net, i, 0), mesh_node(net, i, 5)) for i in range(6)
        ]
        prob = select_paths_dimension_order(net, endpoints)
        assert prob.dilation == 5
        assert prob.congestion == 1  # disjoint rows


class TestBottleneck:
    def test_min_bottleneck_avoids_loaded_edge(self):
        net = layered_complete([1, 2, 1])
        src = net.nodes_at_level(0)[0]
        dst = net.nodes_at_level(2)[0]
        mid_a, mid_b = net.nodes_at_level(1)
        load = [0] * net.num_edges
        load[net.find_edge(src, mid_a)] = 5
        path = min_bottleneck_path(net, src, dst, load)
        assert mid_b in path.nodes

    def test_selector_beats_random_on_gadget(self):
        net = layered_complete([4, 4, 4])
        endpoints = [
            (net.nodes_at_level(0)[i], net.nodes_at_level(2)[0]) for i in range(4)
        ]
        greedy = select_paths_bottleneck(net, endpoints, seed=0)
        # 4 packets to one destination: bottleneck selection spreads the
        # middle level, so congestion on level-0 edges is 1.
        counts = greedy.edge_congestion()
        first_layer = [
            counts[e]
            for e in net.edges()
            if net.level(net.edge_src(e)) == 0
        ]
        assert max(first_layer) == 1

    def test_selector_reproducible(self, bf4):
        endpoints = [
            (bf4.nodes_at_level(0)[i], bf4.nodes_at_level(4)[0]) for i in range(8)
        ]
        a = select_paths_bottleneck(bf4, endpoints, seed=5)
        b = select_paths_bottleneck(bf4, endpoints, seed=5)
        assert [s.path for s in a] == [s.path for s in b]

    def test_unreachable_pair_raises(self, split_net):
        net, ids = split_net
        s, t, u, v = (ids[name] for name in "stuv")
        load = [0] * net.num_edges
        with pytest.raises(PathError, match=f"no forward path from {t} to {v}"):
            min_bottleneck_path(net, t, v, load)
        # A destination below the source is unreachable too.
        with pytest.raises(PathError, match=f"no forward path from {v} to {s}"):
            min_bottleneck_path(net, v, s, load)
        # The trivial path survives the reachability check.
        assert min_bottleneck_path(net, u, u, load).edges == ()

    def test_selector_unreachable_pair_raises(self, split_net):
        net, ids = split_net
        s, t, v = (ids[name] for name in "stv")
        with pytest.raises(PathError, match=f"no forward path from {t} to {v}"):
            select_paths_bottleneck(net, [(s, v), (t, v)], seed=0)


class TestValiant:
    def test_path_through_middle(self, bf4):
        rng = np.random.default_rng(0)
        src = bf4.nodes_at_level(0)[0]
        dst = bf4.nodes_at_level(4)[7]
        path = valiant_path(bf4, src, dst, rng)
        assert path.source == src and path.destination == dst
        assert len(path) == 4

    def test_explicit_intermediate_level(self, bf4):
        rng = np.random.default_rng(0)
        src = bf4.nodes_at_level(0)[0]
        dst = bf4.nodes_at_level(4)[7]
        path = valiant_path(bf4, src, dst, rng, intermediate_level=1)
        assert len(path) == 4

    def test_bad_intermediate_level(self, bf4):
        rng = np.random.default_rng(0)
        with pytest.raises(PathError):
            valiant_path(
                bf4,
                bf4.nodes_at_level(1)[0],
                bf4.nodes_at_level(4)[0],
                rng,
                intermediate_level=0,
            )

    def test_selector(self, bf4):
        endpoints = [
            (bf4.nodes_at_level(0)[i], bf4.nodes_at_level(4)[0]) for i in range(6)
        ]
        prob = select_paths_valiant(bf4, endpoints, seed=1)
        assert prob.num_packets == 6


class TestRoutingProblem:
    def test_congestion_dilation(self, line8):
        edges = [line8.find_edge(i, i + 1) for i in range(8)]
        specs = [PacketSpec(0, 0, 8, Path(line8, edges))]
        prob = RoutingProblem(line8, specs)
        assert prob.congestion == 1
        assert prob.dilation == 8
        assert prob.lower_bound == 8

    def test_duplicate_sources_rejected(self, line8):
        e = [line8.find_edge(0, 1)]
        specs = [
            PacketSpec(0, 0, 1, Path(line8, e)),
            PacketSpec(1, 0, 1, Path(line8, e)),
        ]
        with pytest.raises(WorkloadError):
            RoutingProblem(line8, specs)

    def test_multi_source_escape_hatch(self, line8):
        e = [line8.find_edge(0, 1)]
        specs = [
            PacketSpec(0, 0, 1, Path(line8, e)),
            PacketSpec(1, 0, 1, Path(line8, e)),
        ]
        prob = RoutingProblem(line8, specs, allow_multi_source=True)
        assert prob.congestion == 2

    def test_dense_ids_enforced(self, line8):
        e = [line8.find_edge(0, 1)]
        with pytest.raises(WorkloadError):
            RoutingProblem(line8, [PacketSpec(3, 0, 1, Path(line8, e))])

    def test_zero_length_rejected(self, line8):
        with pytest.raises(WorkloadError):
            RoutingProblem(
                line8, [PacketSpec(0, 2, 2, Path(line8, [], source=2))]
            )

    def test_spec_endpoint_mismatch(self, line8):
        e = [line8.find_edge(0, 1)]
        with pytest.raises(WorkloadError):
            PacketSpec(0, 0, 5, Path(line8, e))


class TestPathsThroughEdge:
    def test_all_paths_cross_the_edge(self, bf4):
        edge = bf4.find_edge(
            butterfly_node(bf4, 2, 0), butterfly_node(bf4, 3, 0)
        )
        feeders = sorted(
            v
            for v in bf4.backward_reachable(butterfly_node(bf4, 2, 0))
            if bf4.level(v) == 0
        )[:4]
        sinks = [butterfly_node(bf4, 4, 0)] * 4
        prob = paths_through_edge(bf4, edge, feeders, sinks, seed=0)
        assert prob.congestion >= 4
        for spec in prob:
            assert spec.path.contains_edge(edge)
