"""Struct-of-arrays state containers for the lockstep array kernel.

The reference engine keeps one Python :class:`~repro.sim.packet.Packet`
object per packet and walks them in its hot loop.  The lockstep kernel
(:mod:`repro.sim.engine_lockstep`) instead keeps every per-packet field in
a dense numpy array indexed by ``(trial, packet id)`` — the struct-of-arrays
layout with a leading trial axis — so one simulation step of a whole batch
of trials becomes a handful of batched array operations.

Three containers live here:

* :class:`GeometryArrays` — the network's endpoint/level tables as int64
  arrays, built once per :class:`~repro.net.NetworkGeometry` and cached on
  it (networks are immutable, so the cache can never go stale).
* :class:`StackedPacketArrays` — the per-packet state: endpoints,
  position, status, move statistics, and the *current path* of Section 2.3
  stored as a right-aligned edge buffer with a per-packet cursor.
* :class:`StackedFrontierArrays` — the frontier-frame router state.

Path representation
-------------------
``path_buf`` is a ``T x N x width`` int64 array; packet ``p``'s current
path in trial ``i`` is ``path_buf[i, p, cursor[i, p]:width]`` (head
first).  A path-following move pops the head by incrementing the cursor; a
deflection/oscillation prepend decrements it and writes the traversed edge
at the new cursor.  The path is empty exactly when ``cursor == width``.
Prepends normally shrink the distance-to-go as fast as they grow the path,
but *forward* deflections (unsafe, never taken by the paper's algorithm)
can grow it past the initial headroom;
:meth:`StackedPacketArrays.grow_front` reallocates with more front columns
in that rare case.

This module deliberately imports only :mod:`numpy`, the error types and
the flat geometry tables — no engine or router types — so it can be loaded
lazily from :meth:`NetworkGeometry.arrays` without import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..net.geometry import NetworkGeometry
    from ..paths import RoutingProblem

#: Extra front columns allocated ahead of the longest initial path, so the
#: common backward prepend/pop oscillation never triggers a reallocation.
_FRONT_SLACK = 2


class GeometryArrays:
    """Dense int64 views of one network's geometry tables."""

    __slots__ = ("edge_src", "edge_dst", "node_levels", "num_nodes", "num_edges")

    def __init__(self, geometry: "NetworkGeometry") -> None:
        self.num_nodes: int = geometry.num_nodes
        self.num_edges: int = geometry.num_edges
        self.edge_src = np.asarray(geometry.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(geometry.edge_dst, dtype=np.int64)
        self.node_levels = np.asarray(geometry.node_levels, dtype=np.int64)

    @classmethod
    def union(cls, parts):
        """The tables of the disjoint union of ``parts``' networks.

        Part ``k``'s nodes and edges keep their order and are shifted by
        the totals of the parts before it.  Returns the union's tables and
        each part's node and edge offsets, as int64 arrays.  The union of
        one part is that part's tables, uncopied, at offset zero.
        """
        if len(parts) == 1:
            zero = np.zeros(1, dtype=np.int64)
            return parts[0], zero, zero
        nodes = np.array([p.num_nodes for p in parts], dtype=np.int64)
        edges = np.array([p.num_edges for p in parts], dtype=np.int64)
        node_off = np.cumsum(nodes) - nodes
        edge_off = np.cumsum(edges) - edges
        out = cls.__new__(cls)
        out.num_nodes = int(nodes.sum())
        out.num_edges = int(edges.sum())
        out.edge_src = np.concatenate(
            [p.edge_src + off for p, off in zip(parts, node_off.tolist())]
        )
        out.edge_dst = np.concatenate(
            [p.edge_dst + off for p, off in zip(parts, node_off.tolist())]
        )
        out.node_levels = np.concatenate([p.node_levels for p in parts])
        return out, node_off, edge_off


class StackedPacketArrays:
    """Per-packet state for a whole *batch* of trials: ``(T, N)`` arrays.

    The lockstep kernel (:mod:`repro.sim.engine_lockstep`) advances many
    Monte Carlo trials at once, each routing its own
    :class:`~repro.paths.RoutingProblem`; trials may share a problem (a
    fixed-problem sweep) or each route a different one (an instance
    sweep), over one network or over several of equal depth, but all carry
    the same number of packets ``N``.
    Every field of :class:`~repro.sim.packet.Packet` becomes a ``(T, N)``
    array (``path_buf`` is ``T x N x width``), the immutable
    ``source``/``destination`` columns included.  ``width`` is common to
    the batch: a problem whose longest path is shorter is left-padded by
    shifting its cursors.
    """

    __slots__ = (
        "trials",
        "num_packets",
        "width",
        "source",
        "destination",
        "node",
        "path_buf",
        "cursor",
        "status",
        "injected_at",
        "absorbed_at",
        "last_edge",
        "last_direction",
        "moves",
        "deflections",
        "unsafe_deflections",
        "backward_moves",
    )

    _STACKED = (
        "source",
        "destination",
        "node",
        "path_buf",
        "cursor",
        "status",
        "injected_at",
        "absorbed_at",
        "last_edge",
        "last_direction",
        "moves",
        "deflections",
        "unsafe_deflections",
        "backward_moves",
    )

    def __init__(self, templates, index) -> None:
        """Trial ``i`` starts as a copy of one-trial ``templates[index[i]]``."""
        n = templates[0].num_packets
        counts = sorted({t.num_packets for t in templates})
        if len(counts) > 1:
            raise ReproError(
                "lockstep trials must carry equal packet counts; got "
                f"{counts}: run unequal problems in separate batches"
            )
        width = max(t.width for t in templates)
        self.trials = len(index)
        self.num_packets = n
        self.width = width
        index = np.asarray(index, dtype=np.intp)
        shifts = [width - t.width for t in templates]
        for name in self._STACKED:
            parts = [getattr(t, name) for t in templates]
            if name == "path_buf":
                parts = [
                    np.pad(p, ((0, 0), (0, 0), (s, 0))) if s else p
                    for p, s in zip(parts, shifts)
                ]
            elif name == "cursor":
                parts = [p + s for p, s in zip(parts, shifts)]
            setattr(self, name, np.concatenate(parts)[index])

    @classmethod
    def from_problems(
        cls, problems, node_offsets=None, edge_offsets=None
    ) -> "StackedPacketArrays":
        """Fresh per-batch state, trial ``i`` routing ``problems[i]``.

        Each distinct problem's initial state (sources, destinations,
        initial paths) is built once as a one-trial template.  A problem
        that serves several trials of the batch keeps its template, so
        warm-pool sweeps that reuse it across seeds and batches skip the
        Python-loop build; a problem routed by one trial only does not.
        The batch passes each trial's node and edge offsets into the union
        of its networks (:meth:`GeometryArrays.union`): the trial's nodes
        and path edges are shifted by them, the templates are not.  A batch
        over one network has zero offsets and shifts nothing.
        """
        slots: dict = {}
        index = [slots.setdefault(id(p), len(slots)) for p in problems]
        distinct = {id(p): p for p in problems}
        uses = np.bincount(index, minlength=len(slots)).tolist()
        templates = []
        for problem, used in zip(distinct.values(), uses):
            template = getattr(problem, "_soa_template", None)
            if template is None:
                template = cls._build(problem)
                if used > 1:
                    problem._soa_template = template
            templates.append(template)
        out = cls(templates, index)
        if node_offsets is not None and np.count_nonzero(node_offsets):
            # The stacked fields are fresh copies (fancy indexing), so the
            # shifts never reach a cached template.  Unused path columns
            # shift too: they stay valid edge ids and are never read live.
            shift = np.asarray(node_offsets, dtype=np.int64)[:, None]
            out.source += shift
            out.destination += shift
            out.node += shift
            out.path_buf += np.asarray(edge_offsets, dtype=np.int64)[
                :, None, None
            ]
        return out

    @classmethod
    def _build(cls, problem: "RoutingProblem") -> "StackedPacketArrays":
        specs = problem.packets
        n = len(specs)
        width = max((len(spec.path) for spec in specs), default=0) + _FRONT_SLACK
        out = cls.__new__(cls)
        out.trials = 1
        out.num_packets = n
        out.width = width
        out.source = np.array([[spec.source for spec in specs]], dtype=np.int64)
        out.destination = np.array(
            [[spec.destination for spec in specs]], dtype=np.int64
        )
        out.node = out.source.copy()
        out.path_buf = np.zeros((1, n, width), dtype=np.int64)
        out.cursor = np.full((1, n), width, dtype=np.int64)
        for pid, spec in enumerate(specs):
            edges = spec.path.edges
            cursor = width - len(edges)
            out.cursor[0, pid] = cursor
            out.path_buf[0, pid, cursor:] = edges
        # status 0 is PacketStatus.PENDING; -1 stands in for the reference
        # engine's None (injected_at, absorbed_at, last_edge, last_direction)
        for name in (
            "status", "moves", "deflections", "unsafe_deflections",
            "backward_moves",
        ):
            setattr(out, name, np.zeros((1, n), dtype=np.int64))
        for name in ("injected_at", "absorbed_at", "last_edge", "last_direction"):
            setattr(out, name, np.full((1, n), -1, dtype=np.int64))
        return out

    def grow_front(self) -> None:
        """Double the shared front headroom across every trial at once."""
        pad = max(4, self.width)
        self.path_buf = np.concatenate(
            [
                np.zeros(
                    (self.trials, self.num_packets, pad), dtype=np.int64
                ),
                self.path_buf,
            ],
            axis=2,
        )
        self.cursor += pad
        self.width += pad


class StackedFrontierArrays:
    """Frontier-frame router state with a leading trial axis.

    Array form of :class:`~repro.core.states.AlgorithmPacketState`: the
    ``wait < normal < excited`` machine (the int value *is* the conflict
    priority), the oscillation anchor, and the frame-schedule constants.
    ``set_index`` (and therefore ``injection_phase``) differs per trial
    because each trial draws its own frontier-set assignment.
    """

    __slots__ = ("state", "wait_node", "wait_edge", "set_index", "injection_phase")

    def __init__(self, set_index, injection_phase) -> None:
        shape = set_index.shape
        self.state = np.full(shape, 2, dtype=np.int64)  # PacketState.NORMAL
        self.wait_node = np.full(shape, -1, dtype=np.int64)
        self.wait_edge = np.full(shape, -1, dtype=np.int64)
        self.set_index = np.asarray(set_index, dtype=np.int64)
        self.injection_phase = np.asarray(injection_phase, dtype=np.int64)


__all__ = [
    "GeometryArrays",
    "StackedPacketArrays",
    "StackedFrontierArrays",
]
