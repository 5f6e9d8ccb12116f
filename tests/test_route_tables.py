"""Per-destination route tables (:mod:`repro.net.routes`) against references.

The path drawers and the greedy routers read cached per-destination
tables instead of searching the network for every packet.  The reference
functions below are the search-and-filter walks and the incident-edge scan
the tables replaced, kept verbatim: on random leveled networks the tables
must give the same edges, raise on the same inputs, and leave the RNG in
the same state.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PathError
from repro.net import butterfly, random_leveled
from repro.net import routes as routes_module
from repro.paths import (
    Path,
    first_monotone_path,
    random_monotone_path,
    valiant_path,
)


# ------------------------------------------------------------------ references


def reference_random_monotone_path(net, source, destination, rng) -> Path:
    if net.level(destination) < net.level(source):
        raise PathError(
            f"destination level {net.level(destination)} below source level "
            f"{net.level(source)}; leveled paths only go forward"
        )
    feasible = net.backward_reachable(destination)
    if source not in feasible:
        raise PathError(f"no forward path from {source} to {destination}")
    edges: List[int] = []
    here = source
    while here != destination:
        options = [e for e in net.out_edges(here) if net.edge_dst(e) in feasible]
        if not options:  # pragma: no cover - feasibility guarantees options
            raise PathError(f"dead end at node {here}")
        pick = options[int(rng.integers(0, len(options)))] if len(options) > 1 else options[0]
        edges.append(pick)
        here = net.edge_dst(pick)
    return Path(net, edges, source=source)


def reference_first_monotone_path(net, source, destination) -> Path:
    feasible = net.backward_reachable(destination)
    if source not in feasible:
        raise PathError(f"no forward path from {source} to {destination}")
    edges: List[int] = []
    here = source
    while here != destination:
        for e in net.out_edges(here):
            if net.edge_dst(e) in feasible:
                edges.append(e)
                here = net.edge_dst(e)
                break
        else:  # pragma: no cover - feasibility guarantees an option
            raise PathError(f"dead end at node {here}")
    return Path(net, edges, source=source)


def reference_valiant_path(net, source, destination, rng, intermediate_level=None):
    src_level = net.level(source)
    dst_level = net.level(destination)
    if dst_level < src_level:
        raise PathError("valiant paths go from lower to higher levels")
    mid = (
        intermediate_level
        if intermediate_level is not None
        else (src_level + dst_level) // 2
    )
    if not src_level <= mid <= dst_level:
        raise PathError(
            f"intermediate level {mid} outside [{src_level}, {dst_level}]"
        )
    ahead = net.forward_reachable(source)
    behind = net.backward_reachable(destination)
    candidates = [
        v for v in net.nodes_at_level(mid) if v in ahead and v in behind
    ]
    if not candidates:
        raise PathError(
            f"no feasible intermediate on level {mid} between "
            f"{source} and {destination}"
        )
    via = candidates[int(rng.integers(0, len(candidates)))]
    first = reference_random_monotone_path(net, source, via, rng)
    second = reference_random_monotone_path(net, via, destination, rng)
    return Path(net, first.edges + second.edges, source=source)


def reference_greedy_ties(net, dist, node):
    """The greedy router's incident-edge scan, minus the final draw."""
    best_edge = None
    best_value = None
    ties: List[int] = []
    for edge in net.incident_edges(node):
        value = dist[net.other_endpoint(edge, node)]
        if value < 0:
            continue  # dead region
        if best_value is None or value < best_value:
            best_value = value
            best_edge = edge
            ties = [edge]
        elif value == best_value:
            ties.append(edge)
    if best_edge is None:  # pragma: no cover - destination unreachable
        ties = list(net.incident_edges(node))
    return tuple(ties)


# ------------------------------------------------------------------ strategies


@st.composite
def sparse_leveled_net(draw):
    """A small random leveled network; some node pairs are unreachable."""
    depth = draw(st.integers(min_value=1, max_value=6))
    widths = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=depth + 1,
            max_size=depth + 1,
        )
    )
    return random_leveled(
        widths,
        edge_probability=draw(st.floats(min_value=0.0, max_value=0.8)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        min_out_degree=draw(st.integers(min_value=0, max_value=1)),
        min_in_degree=draw(st.integers(min_value=0, max_value=1)),
    )


def _result(draw_path):
    """The drawn path's edges, or the ``PathError`` it raised."""
    try:
        return draw_path().edges
    except PathError as err:
        return ("PathError", str(err))


def _outcome(draw_path, rng):
    """``(edges or error, rng state)`` after one draw with ``rng``."""
    return _result(lambda: draw_path(rng)), rng.bit_generator.state


def _pairs(net, data):
    nodes = st.integers(min_value=0, max_value=net.num_nodes - 1)
    return data.draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=12))


# ---------------------------------------------------------------------- tests


class TestPathTableEquivalence:
    @given(sparse_leveled_net(), st.data(), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_monotone_matches_reference(self, net, data, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for src, dst in _pairs(net, data):
            assert _outcome(
                lambda r: random_monotone_path(net, src, dst, r), ours
            ) == _outcome(
                lambda r: reference_random_monotone_path(net, src, dst, r), ref
            )

    @given(sparse_leveled_net(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_monotone_matches_reference(self, net, data):
        for src, dst in _pairs(net, data):
            assert _result(lambda: first_monotone_path(net, src, dst)) == _result(
                lambda: reference_first_monotone_path(net, src, dst)
            )

    @given(sparse_leveled_net(), st.data(), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_valiant_matches_reference(self, net, data, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        level = data.draw(st.none() | st.integers(0, net.depth))
        for src, dst in _pairs(net, data):
            assert _outcome(
                lambda r: valiant_path(net, src, dst, r, level), ours
            ) == _outcome(
                lambda r: reference_valiant_path(net, src, dst, r, level), ref
            )

    def test_path_errors_still_raise(self):
        bf = butterfly(2)
        rng = np.random.default_rng(0)
        top, bottom = bf.nodes_at_level(2)[0], bf.nodes_at_level(0)[0]
        with pytest.raises(PathError, match="below source level"):
            random_monotone_path(bf, top, bottom, rng)
        with pytest.raises(PathError, match="no forward path"):
            first_monotone_path(bf, top, bottom)
        with pytest.raises(PathError, match="lower to higher levels"):
            valiant_path(bf, top, bottom, rng)
        # Same level, different node: unreachable, not "below".
        a, b = bf.nodes_at_level(1)[:2]
        with pytest.raises(PathError, match=f"no forward path from {a} to {b}"):
            random_monotone_path(bf, a, b, rng)
        with pytest.raises(PathError, match=f"no forward path from {a} to {b}"):
            first_monotone_path(bf, a, b)
        with pytest.raises(PathError, match="no feasible intermediate"):
            valiant_path(bf, a, b, rng)
        # The trivial path survives.
        assert random_monotone_path(bf, a, a, rng).edges == ()


class TestTieTableEquivalence:
    @given(sparse_leveled_net(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ties_match_incident_edge_scan(self, net, data):
        routes = net.routes()
        dest = data.draw(st.integers(0, net.num_nodes - 1))
        dist = net.undirected_distances(dest)
        table = routes.greedy_ties(dest)
        assert len(table) == net.num_nodes
        for node in net.nodes():
            assert table[node] == reference_greedy_ties(net, dist, node)


def _held(routes):
    """How many destinations each table kind holds: ``(forward, ties)``."""
    return len(routes._forward), len(routes._ties)


class TestCacheCap:
    @pytest.mark.parametrize("kind", ["forward_options", "greedy_ties"])
    def test_never_exceeds_cap(self, monkeypatch, kind):
        net = butterfly(3)
        monkeypatch.setattr(routes_module, "MAX_TABLE_SLOTS", 4 * net.num_nodes)
        routes = net.routes()
        lookup = getattr(routes, kind)
        index = 0 if kind == "forward_options" else 1
        for _ in range(2):
            for dest in net.nodes():
                table = lookup(dest)
                assert _held(routes)[index] <= 4
                # An evicted destination is rebuilt the same.
                assert table == getattr(butterfly(3).routes(), kind)(dest)
        assert _held(routes)[index] == 4

    @pytest.mark.parametrize("kind", ["forward_options", "greedy_ties"])
    def test_drops_least_recently_used(self, monkeypatch, kind):
        net = butterfly(3)
        monkeypatch.setattr(routes_module, "MAX_TABLE_SLOTS", 3 * net.num_nodes)
        routes = net.routes()
        lookup = getattr(routes, kind)
        cache = routes._forward if kind == "forward_options" else routes._ties
        first = lookup(0)
        lookup(1)
        lookup(2)
        assert lookup(0) is first  # a hit, which makes 1 the oldest
        lookup(3)
        assert list(cache) == [2, 0, 3]
        assert lookup(0) is first

    def test_every_destination_of_butterfly_8_fits(self):
        n = butterfly(8).num_nodes
        assert routes_module.MAX_TABLE_SLOTS // n >= n
