"""Randomized greedy hot-potato routing with priorities.

After Busch, Herlihy and Wattenhofer, *Randomized greedy hot-potato
routing* (SODA 2000 — the paper's reference [11], which introduced the
packet-state/priority technique the frontier-frame algorithm reuses): a
deflected packet becomes *running* (excited) with some probability; running
packets move at top priority toward their destination and revert to normal
when deflected.  The high-priority "home run" lets unlucky packets punch
through congestion instead of being deflected forever.
"""

from __future__ import annotations

from typing import Dict, List

from ..rng import RngLike, make_rng
from ..sim import DesiredMove, Engine, Router
from ..types import MoveKind, PacketId


class RandomizedGreedyRouter(Router):
    """Greedy deflection routing with randomized running priorities."""

    deflection_kind = MoveKind.FREE

    def __init__(self, excite_probability: float = 0.1, seed: RngLike = None) -> None:
        if not 0.0 <= excite_probability <= 1.0:
            raise ValueError(
                f"excite probability must be in [0, 1], got {excite_probability}"
            )
        self.excite_probability = excite_probability
        self._rng = make_rng(seed)
        self._running: List[bool] = []
        self.excitations = 0

    def attach(self, engine: Engine) -> None:
        super().attach(engine)
        self._ties = engine.net.routes().greedy_ties
        engine.mark_all_eligible()
        self._running = [False] * len(engine.packets)

    def desired_move(self, packet_id: PacketId, t: int) -> DesiredMove:
        packet = self.engine.packets[packet_id]
        ties = self._ties(packet.destination)[packet.node]
        pick = (
            ties[int(self._rng.integers(0, len(ties)))]
            if len(ties) > 1
            else ties[0]
        )
        return DesiredMove(pick, MoveKind.FREE)

    def priority(self, packet_id: PacketId, t: int) -> int:
        packet = self.engine.packets[packet_id]
        if packet.is_active and self._running[packet_id]:
            return 1
        return 0

    def on_deflected(self, packet_id: PacketId, t: int, edge, safe: bool) -> None:
        if self._running[packet_id]:
            self._running[packet_id] = False
        elif self._rng.random() < self.excite_probability:
            self._running[packet_id] = True
            self.excitations += 1

    def is_delivered(self, packet_id: PacketId) -> bool:
        packet = self.engine.packets[packet_id]
        return packet.node == packet.destination

    def extra_metrics(self) -> Dict[str, float]:
        """Router statistics for the run result."""
        return {"excitations": float(self.excitations)}
