"""Valiant-style two-phase random-intermediate path selection.

Routing every packet through a uniformly random intermediate node on a
middle level smooths worst-case endpoint patterns into average-case
congestion; classic for butterflies and other regular leveled networks.
Included because the scaling experiments need workloads whose congestion is
close to the bandwidth lower bound rather than endpoint-driven.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import PathError
from ..net import LeveledNetwork
from ..rng import RngLike, make_rng
from ..types import NodeId
from .path import Path, random_monotone_path
from .problem import PacketSpec, RoutingProblem


def valiant_path(
    net: LeveledNetwork,
    source: NodeId,
    destination: NodeId,
    rng,
    intermediate_level: int | None = None,
) -> Path:
    """Path through a random feasible node on an intermediate level.

    The intermediate level defaults to the midpoint of the source and
    destination levels.  The intermediate node is drawn uniformly from nodes
    on that level that are forward-reachable from the source *and* can reach
    the destination; raises :class:`~repro.errors.PathError` if none exists.
    """
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
    behind = net.routes().forward_options(destination)
    candidates = [
        v
        for v in net.nodes_at_level(mid)
        if v in ahead and behind[v] is not None
    ]
    if not candidates:
        raise PathError(
            f"no feasible intermediate on level {mid} between "
            f"{source} and {destination}"
        )
    via = candidates[int(rng.integers(0, len(candidates)))]
    first = random_monotone_path(net, source, via, rng)
    second = random_monotone_path(net, via, destination, rng)
    return Path(net, first.edges + second.edges, source=source)


def select_paths_valiant(
    net: LeveledNetwork,
    endpoints: Sequence[Tuple[NodeId, NodeId]],
    seed: RngLike = None,
    intermediate_level: int | None = None,
) -> RoutingProblem:
    """Valiant paths for every endpoint pair."""
    rng = make_rng(seed)
    specs = [
        PacketSpec(
            k, src, dst, valiant_path(net, src, dst, rng, intermediate_level)
        )
        for k, (src, dst) in enumerate(endpoints)
    ]
    return RoutingProblem(net, specs)
