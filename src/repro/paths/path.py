"""Valid leveled paths (the paper's Section 2.2).

A *valid path* is an edge sequence whose nodes sit on consecutive,
increasing levels.  :class:`Path` is the immutable preselected path stored
"in the header of a packet ... in the form of a list of edges which we refer
to as the path list"; the mutable per-packet *current path* lives in
:class:`repro.sim.packet.Packet` and follows the pop/prepend bookkeeping of
Section 2.3.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..errors import PathError
from ..net import LeveledNetwork
from ..types import EdgeId, NodeId


class Path:
    """An immutable valid path through a leveled network.

    Parameters
    ----------
    net:
        The network the path lives in.
    edges:
        Edge-id sequence; must chain head-to-tail through consecutive
        ascending levels or :class:`~repro.errors.PathError` is raised.
    source:
        Required when ``edges`` is empty (a zero-length path needs to know
        its single node); otherwise inferred and cross-checked.
    """

    __slots__ = ("_edges", "_nodes")

    def __init__(
        self,
        net: LeveledNetwork,
        edges: Sequence[EdgeId],
        source: NodeId | None = None,
    ) -> None:
        edge_tuple = tuple(edges)
        if not edge_tuple:
            if source is None:
                raise PathError("an empty path needs an explicit source node")
            self._edges: Tuple[EdgeId, ...] = ()
            self._nodes: Tuple[NodeId, ...] = (source,)
            return
        nodes: List[NodeId] = [net.edge_src(edge_tuple[0])]
        for e in edge_tuple:
            src, dst = net.edge_endpoints(e)
            if src != nodes[-1]:
                raise PathError(
                    f"edge {e} starts at node {src}, expected {nodes[-1]}"
                )
            nodes.append(dst)
        if source is not None and source != nodes[0]:
            raise PathError(f"path starts at {nodes[0]}, caller claimed {source}")
        self._edges = edge_tuple
        self._nodes = tuple(nodes)

    @classmethod
    def _walked(cls, edges: List[EdgeId], nodes: List[NodeId]) -> "Path":
        """A path its builder walked edge by edge: ``nodes[k + 1]`` is the
        head of ``edges[k]``, which leaves ``nodes[k]``.  No re-check.

        For the path selectors, which step along out-edges and so build a
        valid chain by construction.
        """
        path = cls.__new__(cls)
        path._edges = tuple(edges)
        path._nodes = tuple(nodes)
        return path

    # ------------------------------------------------------------- accessors

    @property
    def edges(self) -> Tuple[EdgeId, ...]:
        """The edge-id sequence (the paper's "path list")."""
        return self._edges

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """Node sequence, one longer than the edge sequence."""
        return self._nodes

    @property
    def source(self) -> NodeId:
        """First node."""
        return self._nodes[0]

    @property
    def destination(self) -> NodeId:
        """Last node."""
        return self._nodes[-1]

    def __len__(self) -> int:
        """Path length = number of edges (the paper's definition)."""
        return len(self._edges)

    def __iter__(self) -> Iterator[EdgeId]:
        return iter(self._edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and self._edges == other._edges
            and self._nodes[0] == other._nodes[0]
        )

    def __hash__(self) -> int:
        return hash((self._edges, self._nodes[0]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Path {self.source}->{self.destination} len={len(self)}>"
        )

    # ------------------------------------------------------------ operations

    def node_at_level(self, net: LeveledNetwork, level: int) -> NodeId | None:
        """The node where this path crosses ``level``, or ``None``.

        A valid path visits each level at most once, so the crossing node is
        unique; this is how a packet finds its *target node* when the target
        level lies on its current path (Section 2.5).
        """
        lo = net.level(self._nodes[0])
        hi = net.level(self._nodes[-1])
        if not lo <= level <= hi:
            return None
        return self._nodes[level - lo]

    def subpath_from(self, net: LeveledNetwork, node: NodeId) -> "Path":
        """The suffix starting at ``node`` (must lie on the path)."""
        try:
            index = self._nodes.index(node)
        except ValueError:
            raise PathError(f"node {node} not on path") from None
        return Path(net, self._edges[index:], source=node)

    def contains_edge(self, edge: EdgeId) -> bool:
        """Whether the given edge appears on the path."""
        return edge in self._edges


def is_valid_edge_sequence(
    net: LeveledNetwork, edges: Sequence[EdgeId], source: NodeId
) -> bool:
    """Check the paper's validity condition on a raw edge list.

    ``True`` iff starting from ``source`` every edge continues from the
    previous endpoint toward the next higher level.  Used by the invariant
    auditor on packets' *current* paths (which must stay valid throughout
    routing by Lemma 2.1).
    """
    here = source
    for e in edges:
        src, dst = net.edge_endpoints(e)
        if src != here:
            return False
        here = dst
    return True


def _walk_table(
    net: LeveledNetwork, source: NodeId, destination: NodeId, rng
) -> Path:
    """Walk ``destination``'s path table (:meth:`RouteTables.forward_options`).

    At each node the walk takes a uniform draw among the out-edges that
    still reach the destination (one ``rng.integers`` call, made only when
    there is more than one), or the first of them when ``rng`` is ``None``.
    """
    options_of = net.routes().forward_options(destination)
    if options_of[source] is None:
        raise PathError(f"no forward path from {source} to {destination}")
    edge_dst = net.geometry().edge_dst
    edges: List[EdgeId] = []
    nodes = [source]
    here = source
    while here != destination:
        options = options_of[here]
        pick = (
            options[int(rng.integers(0, len(options)))]
            if rng is not None and len(options) > 1
            else options[0]
        )
        edges.append(pick)
        here = edge_dst[pick]
        nodes.append(here)
    return Path._walked(edges, nodes)


def random_monotone_path(
    net: LeveledNetwork,
    source: NodeId,
    destination: NodeId,
    rng,
) -> Path:
    """Sample a uniformly *locally* random valid path from source to dest.

    Walk forward, at each node choosing uniformly among outgoing edges whose
    head can still reach the destination (read from the network's cached
    per-destination path table).  Raises :class:`~repro.errors.PathError`
    when no valid path exists.
    """
    if net.level(destination) < net.level(source):
        raise PathError(
            f"destination level {net.level(destination)} below source level "
            f"{net.level(source)}; leveled paths only go forward"
        )
    return _walk_table(net, source, destination, rng)


def first_monotone_path(
    net: LeveledNetwork, source: NodeId, destination: NodeId
) -> Path:
    """Deterministic variant of :func:`random_monotone_path` (first option)."""
    return _walk_table(net, source, destination, None)
