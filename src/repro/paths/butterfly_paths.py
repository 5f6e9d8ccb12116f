"""Bit-fixing paths on the butterfly.

From level-0 row ``r`` to level-``dim`` row ``r'`` there is a *unique* path
in the butterfly: at level ``l`` take the straight edge if bit ``dim-1-l``
of ``r`` and ``r'`` agree, else the cross edge.  Uniqueness makes the
butterfly the canonical congestion testbed: the congestion of a workload is
fully determined by its endpoints, and random many-to-one endpoint sets give
``C = Θ(log N / log log N)`` w.h.p. while hot-spot sets drive ``C`` up to
``N``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import PathError
from ..net import LeveledNetwork, butterfly_node
from ..types import NodeId
from .path import Path
from .problem import PacketSpec, RoutingProblem


def _butterfly_coord(net: LeveledNetwork, node: NodeId) -> Tuple[int, int]:
    label = net.label(node)
    if not (isinstance(label, tuple) and len(label) == 3 and label[0] == "bf"):
        raise PathError(f"node {node} is not a butterfly node (label {label!r})")
    return label[1], label[2]


def bit_fixing_path(
    net: LeveledNetwork, source: NodeId, destination: NodeId
) -> Path:
    """The unique monotone butterfly path between two nodes.

    Works for any source/destination levels ``l_s <= l_d``: only the bits at
    positions ``dim-1-l`` for ``l in [l_s, l_d)`` are fixed en route, so the
    destination row must agree with the source row outside that bit window.
    """
    dim = net.depth
    src_level, src_row = _butterfly_coord(net, source)
    dst_level, dst_row = _butterfly_coord(net, destination)
    if dst_level < src_level:
        raise PathError("butterfly paths go from lower to higher levels")
    fixable = 0
    for level in range(src_level, dst_level):
        fixable |= 1 << (dim - 1 - level)
    if (src_row ^ dst_row) & ~fixable:
        raise PathError(
            f"row {dst_row} unreachable from row {src_row} between levels "
            f"{src_level} and {dst_level}"
        )
    edges = []
    nodes = [source]
    row = src_row
    here = source
    for level in range(src_level, dst_level):
        bit = 1 << (dim - 1 - level)
        row = (row & ~bit) | (dst_row & bit)
        there = butterfly_node(net, level + 1, row)
        edges.append(net.find_edge(here, there))
        nodes.append(there)
        here = there
    return Path._walked(edges, nodes)


def select_paths_bit_fixing(
    net: LeveledNetwork, endpoints: Sequence[Tuple[NodeId, NodeId]]
) -> RoutingProblem:
    """Bit-fixing paths for every endpoint pair on a butterfly."""
    specs = [
        PacketSpec(k, src, dst, bit_fixing_path(net, src, dst))
        for k, (src, dst) in enumerate(endpoints)
    ]
    return RoutingProblem(net, specs)
