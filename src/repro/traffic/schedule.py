"""Arrival schedules: when each packet of a problem becomes injectable.

An :class:`ArrivalSchedule` is the *materialized* form of an injection
process: packet ``k`` of a :class:`~repro.paths.RoutingProblem` may start
attempting injection at step ``times[k]``.  It is immutable — all per-run
release state (which packets the router has approved but whose arrival has
not come) lives in the engine — so one schedule object can be shared by any
number of engines, including the warm scenario cache.

The reference engine (:class:`~repro.sim.Engine`) understands schedules
natively: eligibility marks from the router are *gated* on the packet's
arrival time, and due packets are released at the top of each step.  (The
lockstep batch kernel does not; the trial executor runs schedule-carrying
problems per trial on the reference engine.)  A packet therefore becomes
eligible at ``max(router mark time, arrival time)``, which degenerates to
the classic mark-all-at-attach behavior when every time is zero.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..errors import WorkloadError
from ..types import PacketId


class ArrivalSchedule:
    """Immutable per-packet injection times (packet id -> earliest step)."""

    __slots__ = ("times", "_by_time", "max_time")

    def __init__(self, arrival_times: Sequence[int]) -> None:
        times = tuple(int(t) for t in arrival_times)
        if any(t < 0 for t in times):
            raise WorkloadError("arrival times must be non-negative")
        by_time: Dict[int, list] = {}
        for pid, t in enumerate(times):
            by_time.setdefault(t, []).append(pid)
        self.times: Tuple[int, ...] = times
        self._by_time: Dict[int, Tuple[PacketId, ...]] = {
            t: tuple(pids) for t, pids in by_time.items()
        }
        self.max_time = max(times) if times else 0

    def __len__(self) -> int:
        return len(self.times)

    def time_of(self, packet_id: PacketId) -> int:
        """The earliest step at which ``packet_id`` may inject."""
        return self.times[packet_id]

    def due_at(self, t: int) -> Tuple[PacketId, ...]:
        """Packet ids whose arrival time is exactly ``t``."""
        return self._by_time.get(t, ())

    def validate_for(self, num_packets: int) -> None:
        """Reject a schedule whose length does not match the problem."""
        if len(self.times) != num_packets:
            raise WorkloadError(
                f"{len(self.times)} arrival times for {num_packets} packets"
            )


__all__ = ["ArrivalSchedule"]
