"""Greedy hot-potato routing.

The classic deflection baseline (cf. Ben-Dor/Halevi/Schuster's potential-
function greedy, ref [5] of the paper): a packet always requests an
incident link that reduces its distance to its destination (hop distance in
the undirected network, since deflected packets recover by moving backward);
conflicts are broken uniformly at random and losers take whatever free link
the node hands them.

This router is *path-less*: preselected paths are ignored (only the
endpoints matter), so its performance is not congestion/dilation-of-paths
bound but endpoint driven — the contrast the paper's introduction draws.
"""

from __future__ import annotations

from typing import Tuple

from ..rng import RngLike, make_rng
from ..sim import DesiredMove, Engine, Router
from ..types import MoveKind, PacketId


class GreedyHotPotatoRouter(Router):
    """Distance-greedy deflection routing.

    The tie set at each node comes from the network's per-destination
    tie table (:meth:`repro.net.routes.RouteTables.greedy_ties`), so a
    packet-step is one table lookup and at most one RNG draw, not a scan
    of the node's incident edges.
    """

    deflection_kind = MoveKind.FREE

    def __init__(self, seed: RngLike = None) -> None:
        self._rng = make_rng(seed)
        #: one immutable move per edge, shared by every request for it
        self._moves: Tuple[DesiredMove, ...] = ()

    def attach(self, engine: Engine) -> None:
        super().attach(engine)
        net = engine.net
        self._ties = net.routes().greedy_ties
        self._moves = tuple(DesiredMove(e, MoveKind.FREE) for e in net.edges())
        engine.mark_all_eligible()

    def desired_move(self, packet_id: PacketId, t: int) -> DesiredMove:
        packet = self.engine.packets[packet_id]
        ties = self._ties(packet.destination)[packet.node]
        if len(ties) > 1:
            return self._moves[ties[int(self._rng.integers(0, len(ties)))]]
        return self._moves[ties[0]]

    def is_delivered(self, packet_id: PacketId) -> bool:
        packet = self.engine.packets[packet_id]
        return packet.node == packet.destination
