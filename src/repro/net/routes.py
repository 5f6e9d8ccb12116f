"""Per-destination routing tables, filled lazily and bounded in size.

Two routing decisions depend only on the network, the destination and the
node a packet sits at, so :class:`RouteTables` computes each one once per
destination for every node and serves later packets by indexing a table:

* :meth:`RouteTables.forward_options` — for each node, the out-edges whose
  head can still reach the destination (``None`` when the node itself
  cannot).  Every monotone path drawer in :mod:`repro.paths` walks this
  table instead of searching the network backward for each packet.
* :meth:`RouteTables.greedy_ties` — for each node, the incident edges
  whose far endpoint is nearest the destination in undirected hop
  distance: the tie set the greedy hot-potato routers draw from.

Both tables list edges in the network's own adjacency order, so callers
that draw among the options make the same RNG draws as a scan of the
adjacency would.  A table is a tuple with one slot per node, and each kind
holds at most :data:`MAX_TABLE_SLOTS` slots: beyond that it drops its least
recently used destination.  Equal edge tuples are stored once (a node's full
out-edge tuple is the network's own); that store holds at most one tuple per
distinct subset of a node's out-edges or incident edges that some table has
used, however many destinations a long stream visits.  The tables are built
once per network, lazily, and cached on the network instance
(:meth:`LeveledNetwork.routes`); networks are immutable, so an entry never
goes stale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..types import EdgeId, NodeId

if TYPE_CHECKING:  # pragma: no cover
    from .leveled import LeveledNetwork

#: Slots (one per node per cached destination) each table kind may hold
#: before it drops its least recently used destination.  A slot is one 8-byte
#: pointer, so a kind takes at most about 67 MB, and every destination of a
#: network up to 2,896 nodes fits at once (``butterfly(8)`` has 2,304).
MAX_TABLE_SLOTS = 1 << 23

#: Tables are tuples: every caller shares one, so none can alter it.
ForwardTable = Tuple[Optional[Tuple[EdgeId, ...]], ...]
TieTable = Tuple[Tuple[EdgeId, ...], ...]


class RouteTables:
    """Lazily filled, size-capped per-destination tables of one network."""

    __slots__ = ("_net", "_forward", "_ties", "_shared")

    def __init__(self, net: "LeveledNetwork") -> None:
        self._net = net
        self._forward: Dict[NodeId, ForwardTable] = {}
        self._ties: Dict[NodeId, TieTable] = {}
        #: one copy of each distinct edge tuple the tables have held; at most
        #: one per edge subset that occurs at a node, however many
        #: destinations are visited or dropped
        self._shared: Dict[Tuple[EdgeId, ...], Tuple[EdgeId, ...]] = {}

    def forward_options(self, destination: NodeId) -> ForwardTable:
        """Per-node out-edges that keep ``destination`` reachable.

        Entry ``v`` is ``None`` when ``destination`` is not forward-reachable
        from ``v``; otherwise the tuple of ``v``'s out-edges (in adjacency
        order) whose head still reaches it, empty at ``destination`` itself.
        """
        return _lookup(self._forward, destination, self._build_forward)

    def greedy_ties(self, destination: NodeId) -> TieTable:
        """Per-node incident edges whose far end is nearest ``destination``.

        Distance is hop distance in the undirected network; edges are in
        ``in_edges + out_edges`` order.  A node whose every neighbour is cut
        off from ``destination`` gets all its incident edges.
        """
        return _lookup(self._ties, destination, self._build_ties)

    # --------------------------------------------------------------- builders

    def _build_forward(self, destination: NodeId) -> ForwardTable:
        net = self._net
        edge_src = net._edge_src
        edge_dst = net._edge_dst
        in_edges = net._in
        out_edges = net._out
        shared = self._shared
        table: List[Optional[Tuple[EdgeId, ...]]] = [None] * net.num_nodes
        table[destination] = ()
        frontier = [destination]
        # Levels strictly decrease along the backward search, so a node's
        # out-neighbours are all settled before the node is reached.
        while frontier:
            nxt: List[NodeId] = []
            for v in frontier:
                for e in in_edges[v]:
                    u = edge_src[e]
                    if table[u] is None:
                        table[u] = ()
                        nxt.append(u)
            for u in nxt:
                out = out_edges[u]
                options = tuple(e for e in out if table[edge_dst[e]] is not None)
                table[u] = (
                    out
                    if len(options) == len(out)
                    else shared.setdefault(options, options)
                )
            frontier = nxt
        return tuple(table)

    def _build_ties(self, destination: NodeId) -> TieTable:
        net = self._net
        dist = net.undirected_distances(destination)
        edge_src = net._edge_src
        edge_dst = net._edge_dst
        shared = self._shared
        table: List[Tuple[EdgeId, ...]] = []
        # A node at distance d >= 1 has its nearest neighbours at d - 1.  The
        # destination (all neighbours at 1) and nodes cut off from it (no
        # neighbour reaches it) draw among all their incident edges.
        for d, ins, outs in zip(dist, net._in, net._out):
            if d > 0:
                d -= 1
                ties = tuple(
                    [e for e in ins if dist[edge_src[e]] == d]
                    + [e for e in outs if dist[edge_dst[e]] == d]
                )
            else:
                ties = ins + outs
            table.append(shared.setdefault(ties, ties))
        return tuple(table)


def _lookup(cache: Dict[NodeId, tuple], destination: NodeId, build: Callable):
    """``destination``'s table from ``cache``, built on a miss.

    The entry is reinserted on every lookup, so the cache's order is the
    order of last use and the first entry is the one to drop.
    """
    table = cache.pop(destination, None)
    if table is None:
        table = build(destination)
        cap = max(1, MAX_TABLE_SLOTS // len(table))
        while len(cache) >= cap:
            del cache[next(iter(cache))]
    cache[destination] = table
    return table


__all__ = ["MAX_TABLE_SLOTS", "RouteTables"]
