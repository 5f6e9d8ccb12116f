"""The leveled-network substrate.

A *leveled network* with depth ``L`` (the paper's Section 1.1) consists of
``L + 1`` levels of nodes, numbered ``0`` to ``L``, such that every node
belongs to exactly one level and every edge connects nodes on consecutive
levels.  Edges are *oriented* from the lower to the higher level, but during
hot-potato routing they are traversed in both directions, at most one packet
per direction per time step (paper footnote 1).

:class:`LeveledNetwork` is an immutable, densely indexed structure: nodes and
edges are integers, adjacency is stored in tuples, and per-level node lists
are precomputed.  Topology factories either add nodes and edges through
:class:`LeveledNetworkBuilder` or pass whole level and edge lists to the
constructor; both validate the leveled property edge by edge.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..types import Direction, EdgeId, NodeId, NodeLabel


class LeveledNetwork:
    """An immutable leveled network.

    Instances should be created through :class:`LeveledNetworkBuilder` or one
    of the topology factories in :mod:`repro.net`; the constructor performs
    full structural validation regardless, so a network object is always
    well-formed.

    Parameters
    ----------
    node_levels:
        ``node_levels[v]`` is the level of node ``v``; node ids must be the
        dense range ``0 .. len(node_levels) - 1``.
    edges:
        Sequence of ``(src, dst)`` pairs with ``level(dst) == level(src)+1``.
    node_labels:
        Optional human-readable labels, one per node.
    name:
        Optional topology name used in reports.
    """

    __slots__ = (
        "_levels_of",
        "_labels",
        "_edge_src",
        "_edge_dst",
        "_out",
        "_in",
        "_levels",
        "_label_index",
        "_edge_index",
        "_geometry",
        "_routes",
        "name",
    )

    def __init__(
        self,
        node_levels: Sequence[int],
        edges: Sequence[Tuple[NodeId, NodeId]],
        node_labels: Optional[Sequence[NodeLabel]] = None,
        name: str = "leveled",
    ) -> None:
        self.name = name
        self._levels_of: Tuple[int, ...] = tuple(int(level) for level in node_levels)
        n = len(self._levels_of)
        if n == 0:
            raise TopologyError("a leveled network needs at least one node")
        for v, level in enumerate(self._levels_of):
            if level < 0:
                raise TopologyError(f"node {v} has negative level {level}")

        if node_labels is None:
            self._labels: Tuple[NodeLabel, ...] = tuple(range(n))
        else:
            if len(node_labels) != n:
                raise TopologyError(
                    f"{len(node_labels)} labels for {n} nodes"
                )
            self._labels = tuple(node_labels)

        depth = max(self._levels_of)
        level_lists: List[List[NodeId]] = [[] for _ in range(depth + 1)]
        for v, level in enumerate(self._levels_of):
            level_lists[level].append(v)
        for level, members in enumerate(level_lists):
            if not members:
                raise TopologyError(f"level {level} has no nodes")
        self._levels: Tuple[Tuple[NodeId, ...], ...] = tuple(
            tuple(members) for members in level_lists
        )

        out_lists: List[List[EdgeId]] = [[] for _ in range(n)]
        in_lists: List[List[EdgeId]] = [[] for _ in range(n)]
        edge_src: List[NodeId] = []
        edge_dst: List[NodeId] = []
        for e, (src, dst) in enumerate(edges):
            if not (0 <= src < n and 0 <= dst < n):
                raise TopologyError(f"edge {e} endpoints ({src}, {dst}) out of range")
            if self._levels_of[dst] != self._levels_of[src] + 1:
                raise TopologyError(
                    f"edge {e} = ({src}, {dst}) joins levels "
                    f"{self._levels_of[src]} and {self._levels_of[dst]}; "
                    "leveled networks only allow consecutive levels"
                )
            edge_src.append(src)
            edge_dst.append(dst)
            out_lists[src].append(e)
            in_lists[dst].append(e)
        self._edge_src: Tuple[NodeId, ...] = tuple(edge_src)
        self._edge_dst: Tuple[NodeId, ...] = tuple(edge_dst)
        self._out: Tuple[Tuple[EdgeId, ...], ...] = tuple(
            tuple(lst) for lst in out_lists
        )
        self._in: Tuple[Tuple[EdgeId, ...], ...] = tuple(tuple(lst) for lst in in_lists)

        # The label and endpoint indexes are built on first lookup: most
        # networks (every random_leveled instance of a sweep) never look
        # one up, and the two dicts are about a third of their memory.
        self._label_index: Optional[Dict[NodeLabel, NodeId]] = None
        self._edge_index: Optional[Dict[Tuple[NodeId, NodeId], EdgeId]] = None
        #: lazily built dense lookup tables for the simulation hot path
        self._geometry = None
        #: lazily built per-destination path and greedy-tie tables
        self._routes = None

    # ------------------------------------------------------------------ size

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._levels_of)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edge_src)

    @property
    def depth(self) -> int:
        """The paper's ``L``: the highest level number (levels are 0..L)."""
        return len(self._levels) - 1

    @property
    def num_levels(self) -> int:
        """``L + 1``."""
        return len(self._levels)

    # ----------------------------------------------------------------- nodes

    def level(self, node: NodeId) -> int:
        """Level of ``node``."""
        return self._levels_of[node]

    def label(self, node: NodeId) -> NodeLabel:
        """Human-readable label of ``node``."""
        return self._labels[node]

    def node_by_label(self, label: NodeLabel) -> NodeId:
        """Inverse of :meth:`label`; raises if the label is absent/ambiguous."""
        if self._label_index is None:
            index: Dict[NodeLabel, NodeId] = {}
            for v, known in enumerate(self._labels):
                # Labels may repeat (default int labels never do); the
                # index only keeps unambiguous labels.
                index[known] = -1 if known in index else v
            self._label_index = index
        node = self._label_index.get(label, None)
        if node is None or node < 0:
            raise TopologyError(f"label {label!r} is absent or ambiguous")
        return node

    def nodes(self) -> range:
        """All node ids."""
        return range(self.num_nodes)

    def nodes_at_level(self, level: int) -> Tuple[NodeId, ...]:
        """Nodes on one level."""
        if not (0 <= level <= self.depth):
            raise TopologyError(f"level {level} outside 0..{self.depth}")
        return self._levels[level]

    def level_sizes(self) -> Tuple[int, ...]:
        """Number of nodes on each level, 0..L."""
        return tuple(len(members) for members in self._levels)

    # ----------------------------------------------------------------- edges

    def edges(self) -> range:
        """All edge ids."""
        return range(self.num_edges)

    def edge_endpoints(self, edge: EdgeId) -> Tuple[NodeId, NodeId]:
        """``(src, dst)`` with ``level(dst) == level(src) + 1``."""
        return self._edge_src[edge], self._edge_dst[edge]

    def edge_src(self, edge: EdgeId) -> NodeId:
        """Lower-level endpoint."""
        return self._edge_src[edge]

    def edge_dst(self, edge: EdgeId) -> NodeId:
        """Higher-level endpoint."""
        return self._edge_dst[edge]

    def other_endpoint(self, edge: EdgeId, node: NodeId) -> NodeId:
        """The endpoint of ``edge`` that is not ``node``."""
        src, dst = self._edge_src[edge], self._edge_dst[edge]
        if node == src:
            return dst
        if node == dst:
            return src
        raise TopologyError(f"node {node} is not an endpoint of edge {edge}")

    def out_edges(self, node: NodeId) -> Tuple[EdgeId, ...]:
        """Edges from ``node`` to the next higher level."""
        return self._out[node]

    def in_edges(self, node: NodeId) -> Tuple[EdgeId, ...]:
        """Edges from the next lower level into ``node``."""
        return self._in[node]

    def incident_edges(self, node: NodeId) -> Tuple[EdgeId, ...]:
        """All incident edges (in + out)."""
        return self._in[node] + self._out[node]

    def degree(self, node: NodeId) -> int:
        """Total degree (in + out)."""
        return len(self._in[node]) + len(self._out[node])

    def out_degree(self, node: NodeId) -> int:
        """Number of forward edges."""
        return len(self._out[node])

    def in_degree(self, node: NodeId) -> int:
        """Number of backward edges."""
        return len(self._in[node])

    def max_degree(self) -> int:
        """Maximum total degree over all nodes."""
        return max(self.degree(v) for v in self.nodes())

    def find_edge(self, src: NodeId, dst: NodeId) -> EdgeId:
        """The (first) edge from ``src`` to ``dst``; raises if absent."""
        index = self._edge_index
        if index is None:
            index = self._endpoint_index()
        edge = index.get((src, dst))
        if edge is None:
            raise TopologyError(f"no edge ({src}, {dst})")
        return edge

    def find_edges(self, src: NodeId, dst: NodeId) -> Tuple[EdgeId, ...]:
        """All parallel edges from ``src`` to ``dst`` (may be empty)."""
        return tuple(
            e for e in self._out[src] if self._edge_dst[e] == dst
        )

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Whether an edge ``src -> dst`` exists."""
        return (src, dst) in self._endpoint_index()

    def _endpoint_index(self) -> Dict[Tuple[NodeId, NodeId], EdgeId]:
        """``(src, dst) -> edge``, built on first use."""
        if self._edge_index is None:
            index: Dict[Tuple[NodeId, NodeId], EdgeId] = {}
            for e, key in enumerate(zip(self._edge_src, self._edge_dst)):
                # Parallel edges (fat-trees) keep the first id; find_edges
                # returns all.
                index.setdefault(key, e)
            self._edge_index = index
        return self._edge_index

    def traversal_direction(self, edge: EdgeId, from_node: NodeId) -> Direction:
        """Direction of traversing ``edge`` starting at ``from_node``."""
        if from_node == self._edge_src[edge]:
            return Direction.FORWARD
        if from_node == self._edge_dst[edge]:
            return Direction.BACKWARD
        raise TopologyError(f"node {from_node} is not an endpoint of edge {edge}")

    def forward_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Nodes reachable by one forward step."""
        return tuple(self._edge_dst[e] for e in self._out[node])

    def backward_neighbors(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Nodes reachable by one backward step."""
        return tuple(self._edge_src[e] for e in self._in[node])

    # ------------------------------------------------------------ reachability

    def forward_reachable(self, source: NodeId) -> set[NodeId]:
        """All nodes reachable from ``source`` by forward edges (incl. itself)."""
        seen = {source}
        frontier = [source]
        while frontier:
            nxt: List[NodeId] = []
            for u in frontier:
                for e in self._out[u]:
                    v = self._edge_dst[e]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def backward_reachable(self, target: NodeId) -> set[NodeId]:
        """All nodes from which ``target`` is forward-reachable (incl. itself)."""
        seen = {target}
        frontier = [target]
        while frontier:
            nxt: List[NodeId] = []
            for v in frontier:
                for e in self._in[v]:
                    u = self._edge_src[e]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return seen

    def undirected_distances(self, source: NodeId) -> List[int]:
        """BFS hop distance from ``source`` treating edges as undirected.

        Unreachable nodes get distance ``-1``.  Used by the greedy hot-potato
        baseline as its distance potential.
        """
        dist = [-1] * self.num_nodes
        dist[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt: List[NodeId] = []
            for u in frontier:
                for e in self._out[u]:
                    v = self._edge_dst[e]
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
                for e in self._in[u]:
                    v = self._edge_src[e]
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------ misc

    def geometry(self):
        """Dense per-node/per-edge lookup tables for the engine hot path.

        Built once on first use and cached (the network is immutable); see
        :class:`repro.net.geometry.NetworkGeometry`.
        """
        if self._geometry is None:
            from .geometry import NetworkGeometry

            self._geometry = NetworkGeometry(self)
        return self._geometry

    def routes(self):
        """Per-destination path and greedy-tie tables, filled lazily.

        Created on first use and cached (the network is immutable); see
        :class:`repro.net.routes.RouteTables`.
        """
        if self._routes is None:
            from .routes import RouteTables

            self._routes = RouteTables(self)
        return self._routes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LeveledNetwork {self.name!r}: depth={self.depth} "
            f"nodes={self.num_nodes} edges={self.num_edges}>"
        )

    def describe(self) -> str:
        """One-line human description used in benchmark reports."""
        sizes = self.level_sizes()
        shown = (
            "x".join(str(s) for s in sizes)
            if len(sizes) <= 8
            else f"{sizes[0]}..{sizes[-1]} ({len(sizes)} levels)"
        )
        return (
            f"{self.name}: L={self.depth}, |V|={self.num_nodes}, "
            f"|E|={self.num_edges}, levels {shown}"
        )


class LeveledNetworkBuilder:
    """Incremental builder for :class:`LeveledNetwork`.

    Example
    -------
    >>> b = LeveledNetworkBuilder("demo")
    >>> u = b.add_node(0, "u"); v = b.add_node(1, "v")
    >>> _ = b.add_edge(u, v)
    >>> net = b.build()
    >>> net.depth
    1
    """

    def __init__(self, name: str = "leveled") -> None:
        self.name = name
        self._levels: List[int] = []
        self._labels: List[NodeLabel] = []
        self._edges: List[Tuple[NodeId, NodeId]] = []
        self._label_to_node: Dict[NodeLabel, NodeId] = {}

    def add_node(self, level: int, label: Optional[NodeLabel] = None) -> NodeId:
        """Add one node at ``level`` and return its id."""
        if level < 0:
            raise TopologyError(f"negative level {level}")
        node = len(self._levels)
        self._levels.append(level)
        self._labels.append(node if label is None else label)
        if label is not None:
            if label in self._label_to_node:
                raise TopologyError(f"duplicate node label {label!r}")
            self._label_to_node[label] = node
        return node

    def add_nodes(self, level: int, count: int) -> List[NodeId]:
        """Add ``count`` unlabeled nodes at ``level``."""
        if count < 0:
            raise TopologyError(f"negative node count {count}")
        return [self.add_node(level) for _ in range(count)]

    def node(self, label: NodeLabel) -> NodeId:
        """Look up a previously added labeled node."""
        try:
            return self._label_to_node[label]
        except KeyError:
            raise TopologyError(f"no node labeled {label!r}") from None

    def add_edge(self, src: NodeId, dst: NodeId) -> EdgeId:
        """Add an edge from ``src`` (level l) to ``dst`` (level l+1)."""
        n = len(self._levels)
        if not (0 <= src < n and 0 <= dst < n):
            raise TopologyError(f"edge endpoints ({src}, {dst}) out of range")
        if self._levels[dst] != self._levels[src] + 1:
            raise TopologyError(
                f"edge ({src}, {dst}) joins levels {self._levels[src]} and "
                f"{self._levels[dst]}; must be consecutive"
            )
        edge = len(self._edges)
        self._edges.append((src, dst))
        return edge

    def add_edge_by_labels(self, src_label: NodeLabel, dst_label: NodeLabel) -> EdgeId:
        """Add an edge between two labeled nodes."""
        return self.add_edge(self.node(src_label), self.node(dst_label))

    @property
    def num_nodes(self) -> int:
        """Nodes added so far."""
        return len(self._levels)

    @property
    def num_edges(self) -> int:
        """Edges added so far."""
        return len(self._edges)

    def build(self) -> LeveledNetwork:
        """Freeze the builder into an immutable network."""
        return LeveledNetwork(
            self._levels, self._edges, node_labels=self._labels, name=self.name
        )


def iter_edge_endpoints(
    net: LeveledNetwork,
) -> Iterator[Tuple[EdgeId, NodeId, NodeId]]:
    """Yield ``(edge, src, dst)`` for every edge; convenience for analysis."""
    for e in net.edges():
        src, dst = net.edge_endpoints(e)
        yield e, src, dst
