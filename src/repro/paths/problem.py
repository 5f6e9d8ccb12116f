"""Routing problems: packets with preselected paths.

The paper's problem model (Section 1.1): a set of ``N`` packets, each with a
source and a destination node and a *preselected valid path*; at most one
packet originates at any node (many-to-one: arbitrarily many may share a
destination).  "In this work we do not consider how these paths are
selected, but how to design fast routing algorithms given the paths" — so a
:class:`RoutingProblem` is exactly that given: network + per-packet paths,
with congestion ``C`` and dilation ``D`` derivable from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

from ..errors import WorkloadError
from ..net import LeveledNetwork
from ..types import NodeId, PacketId
from .path import Path


@dataclass(frozen=True)
class PacketSpec:
    """One packet of a routing problem."""

    packet_id: PacketId
    source: NodeId
    destination: NodeId
    path: Path

    def __post_init__(self) -> None:
        if self.path.source != self.source:
            raise WorkloadError(
                f"packet {self.packet_id}: path starts at {self.path.source}, "
                f"not at its source {self.source}"
            )
        if self.path.destination != self.destination:
            raise WorkloadError(
                f"packet {self.packet_id}: path ends at {self.path.destination}, "
                f"not at its destination {self.destination}"
            )


class RoutingProblem:
    """A network plus ``N`` packets with preselected paths.

    Enforces the paper's model: at most one packet per source node, and no
    zero-length packets (a packet whose source equals its destination needs
    no routing and would break injection-in-isolation accounting).
    """

    def __init__(
        self,
        net: LeveledNetwork,
        packets: Sequence[PacketSpec],
        allow_multi_source: bool = False,
    ) -> None:
        self.net = net
        self.packets: Tuple[PacketSpec, ...] = tuple(packets)
        for index, spec in enumerate(self.packets):
            if spec.packet_id != index:
                raise WorkloadError(
                    f"packet ids must be dense 0..N-1; slot {index} holds "
                    f"id {spec.packet_id}"
                )
            if len(spec.path) == 0:
                raise WorkloadError(
                    f"packet {index} has a zero-length path (source == dest)"
                )
        if not allow_multi_source:
            seen: set[NodeId] = set()
            for spec in self.packets:
                if spec.source in seen:
                    raise WorkloadError(
                        f"two packets share source node {spec.source}; the "
                        "paper's model injects at most one packet per node"
                    )
                seen.add(spec.source)
        #: optional per-packet injection times (repro.traffic.ArrivalSchedule);
        #: engines gate eligibility on it when present
        self.arrival_schedule = None

    # ------------------------------------------------------------- accessors

    @property
    def num_packets(self) -> int:
        """The paper's ``N``."""
        return len(self.packets)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[PacketSpec]:
        return iter(self.packets)

    def __getitem__(self, packet_id: PacketId) -> PacketSpec:
        return self.packets[packet_id]

    # ---------------------------------------------------------------- stats

    def edge_congestion(self) -> List[int]:
        """Per-edge packet counts of the preselected paths."""
        counts = [0] * self.net.num_edges
        for spec in self.packets:
            for e in spec.path.edges:
                counts[e] += 1
        return counts

    # ``packets`` is a tuple over an immutable network, so ``C`` and ``D``
    # cannot change: each is counted once per problem, on first read.
    @cached_property
    def congestion(self) -> int:
        """The paper's ``C``: max packets crossing any single edge."""
        counts = self.edge_congestion()
        return max(counts) if counts else 0

    @cached_property
    def dilation(self) -> int:
        """The paper's ``D``: maximum preselected path length."""
        return max((len(spec.path) for spec in self.packets), default=0)

    @property
    def lower_bound(self) -> int:
        """The trivial routing lower bound ``max(C, D) = Θ(C + D)``."""
        return max(self.congestion, self.dilation)

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return (
            f"{self.net.name}: N={self.num_packets} C={self.congestion} "
            f"D={self.dilation} L={self.net.depth}"
        )
