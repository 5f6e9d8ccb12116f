"""Precomputed dense geometry tables for the simulation hot path.

:class:`NetworkGeometry` flattens a :class:`~repro.net.leveled.LeveledNetwork`
into plain tuples that the engine's inner loops index directly, bypassing
method calls and per-step tuple construction:

* ``edge_src`` / ``edge_dst`` — per-edge endpoint tables;
* ``in_edges`` / ``out_edges`` — per-node incident-edge tuples (shared with
  the network's own adjacency, so the cache adds no copies of them);
* ``in_slot_ids`` / ``out_slot_ids`` — per-node *directed slot* ids aligned
  with the edge tuples above.

A directed slot identifies ``(edge, traversal direction)`` as a single
integer ``(edge << 1) | direction`` (``Direction.FORWARD == 0``,
``Direction.BACKWARD == 1``), so the engine's capacity bookkeeping hashes
small ints instead of tuples.  Traversing an in-edge of a node means going
*backward* (toward lower levels); traversing an out-edge means going
*forward* — hence in-edges pair with backward slot ids and out-edges with
forward slot ids.

The geometry is built once per network, lazily, and cached on the network
instance (:meth:`LeveledNetwork.geometry`); networks are immutable, so the
cache can never go stale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..types import Direction, EdgeId, NodeId

if TYPE_CHECKING:  # pragma: no cover
    from .leveled import LeveledNetwork


def slot_id(edge: EdgeId, direction: Direction) -> int:
    """Encode a ``(edge, direction)`` pair as a single int."""
    return (edge << 1) | int(direction)


def slot_edge(slot: int) -> EdgeId:
    """The edge of an encoded slot."""
    return slot >> 1


def slot_direction(slot: int) -> Direction:
    """The traversal direction of an encoded slot."""
    return Direction(slot & 1)


class NetworkGeometry:
    """Immutable dense lookup tables derived from one leveled network."""

    __slots__ = (
        "num_nodes",
        "num_edges",
        "edge_src",
        "edge_dst",
        "in_edges",
        "out_edges",
        "node_levels",
        "_slot_ids",
        "_vec_arrays",
    )

    def __init__(self, net: "LeveledNetwork") -> None:
        self.num_nodes: int = net.num_nodes
        self.num_edges: int = net.num_edges
        # The network's own adjacency tuples are immutable; share them.
        self.edge_src: Tuple[NodeId, ...] = net._edge_src
        self.edge_dst: Tuple[NodeId, ...] = net._edge_dst
        self.in_edges: Tuple[Tuple[EdgeId, ...], ...] = net._in
        self.out_edges: Tuple[Tuple[EdgeId, ...], ...] = net._out
        self.node_levels: Tuple[int, ...] = net._levels_of
        self._slot_ids = None
        self._vec_arrays = None

    def _slots(self):
        """Both slot-id tables, built on first use: the lockstep kernel
        never reads them, so a batch over many networks does not hold
        them."""
        if self._slot_ids is None:
            backward = int(Direction.BACKWARD)
            self._slot_ids = (
                tuple(
                    tuple((e << 1) | backward for e in edges)
                    for edges in self.in_edges
                ),
                tuple(tuple(e << 1 for e in edges) for edges in self.out_edges),
            )
        return self._slot_ids

    @property
    def in_slot_ids(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node backward slot ids, aligned with :attr:`in_edges`."""
        return self._slots()[0]

    @property
    def out_slot_ids(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node forward slot ids, aligned with :attr:`out_edges`."""
        return self._slots()[1]

    def arrays(self):
        """Numpy views of the endpoint/level tables, built and cached lazily.

        Imported on first use, since :mod:`repro.sim` imports this
        package; only the lockstep kernel (:mod:`repro.sim.engine_lockstep`)
        calls this.
        """
        if self._vec_arrays is None:
            from ..sim.soa import GeometryArrays

            self._vec_arrays = GeometryArrays(self)
        return self._vec_arrays

    def traversal_slot(self, edge: EdgeId, from_node: NodeId) -> int:
        """Encoded slot for traversing ``edge`` starting at ``from_node``.

        Mirrors :meth:`LeveledNetwork.traversal_direction` without the
        endpoint validation; callers must pass an incident node.
        """
        return (edge << 1) | (0 if from_node == self.edge_src[edge] else 1)
