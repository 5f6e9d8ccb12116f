"""Arbitration of the lockstep kernel's contended ticks.

:class:`ArbitrationMixin` holds the part of
:class:`~repro.sim.engine_lockstep.LockstepEngine` that settles the
conflicted trials of a tick: the reference engine's slot arbitration and
loser deflection matching, as array operations over every conflicted
trial at once (see the kernel's module docstring).  It is a module of its
own because Python compiles a module in one piece: a process without
cached bytecode holds the whole syntax tree of a module while compiling
it, and the kernel in one module made that transient the peak memory of
a telemetered tuning study.
"""

from __future__ import annotations

from itertools import chain
from typing import List

import numpy as np

from ..errors import CapacityError


def _member(sorted_keys, q):
    """Mask of the entries of ``q`` present in the sorted ``sorted_keys``.

    ``np.isin`` sorts both inputs on every call, which costs more than the
    whole lookup on the few dozen keys of a narrow batch's contended tick:
    with ``np.isin`` in its place, ``_match_deflections`` made per-trial
    time 4-31% slower on ``butterfly_hotrow`` and ``naive_hotrow`` at
    widths 4, 6 and 64 (medians of 6 interleaved best-of-15 runs on a
    2-core shared VM).
    """
    if not sorted_keys.size:
        return np.zeros(q.size, dtype=bool)
    ix = np.minimum(np.searchsorted(sorted_keys, q), sorted_keys.size - 1)
    return sorted_keys[ix] == q


class ArbitrationMixin:
    """Contended-tick arbitration of :class:`LockstepEngine`."""

    def _arbitrate(self, conf_rows, tid, pid, nodes, is_elig, key, span):
        """The reference arbitration for the conflicted trials of one tick.

        ``conf_rows`` are the trials with a contended slot; ``key`` is each
        flat participant's ``trial * span + slot``.  Returns the flat
        indices of every trial's winners in the reference's granted order
        (trials ascending; within a trial, slots in order of first
        appearance, which for a conflict-free trial is its participant
        order) and the deflections ``(tid, pid, edge, unsafe)`` of the
        losers, or None when nobody is deflected.  Ranking, ties and loser
        matching are array operations; Python loops only over tied slots
        and multi-loser nodes, drawing each ``rng.integers`` and
        ``rng.shuffle`` from the trial's own generator in the reference's
        order (all tie-breaks, by slot first appearance, then the shuffles,
        by node of first loser).
        """
        fr = self.fr
        rngs = self.rngs
        n = tid.size
        conf = np.zeros(self.trials, dtype=bool)
        conf[conf_rows] = True
        cpos = np.nonzero(conf[tid])[0]

        # Contender groups: one per (trial, slot), members in participant
        # order (stable sort), ``first`` is each group's first appearance.
        order = cpos[np.argsort(key[cpos], kind="stable")]
        gkey = key[order]
        head = np.ones(order.size, dtype=bool)
        np.not_equal(gkey[1:], gkey[:-1], out=head[1:])
        starts = np.nonzero(head)[0]
        gid = np.cumsum(head) - 1
        first = order[starts]
        # Active packets outrank pending ones; the router's state priority
        # (the frontier state value) ranks within each class.
        rank = np.where(is_elig[order], 0, 4)
        if fr is not None:
            rank += self._flat["state"][(tid * self.num_packets + pid)[order]]
        best = rank == np.maximum.reduceat(rank, starts)[gid]
        nbest = np.bincount(gid[best], minlength=starts.size)
        pick = np.cumsum(nbest) - nbest
        tied = np.nonzero(nbest > 1)[0]
        if tied.size:
            tied = tied[np.argsort(first[tied])]
            pick[tied] += [
                rngs[i].integers(0, k)
                for i, k in zip(
                    tid[first[tied]].tolist(), nbest[tied].tolist()
                )
            ]
        winner = order[best][pick]

        # Losers grouped per (trial, node), each group in the reference's
        # append order: slot first appearance, then participant order.
        lose = ~is_elig[order] & (order != winner[gid])
        deflected = None
        if lose.any():
            lpos = order[lose]
            lfirst = first[gid[lose]]
            lnode = tid[lpos] * self._num_nodes + nodes[lpos]
            o = np.lexsort((lpos, lfirst, lnode))
            lpos, lfirst, lnode = lpos[o], lfirst[o], lnode[o]
            lhead = np.ones(lpos.size, dtype=bool)
            np.not_equal(lnode[1:], lnode[:-1], out=lhead[1:])
            lstarts = np.nonzero(lhead)[0]
            need = np.diff(np.append(lstarts, lpos.size))
            multi = np.nonzero(need > 1)[0]
            if multi.size:
                hs = lstarts[multi]
                multi = multi[np.argsort(lfirst[hs] * n + lpos[hs])]
                for s, k in zip(lstarts[multi].tolist(), need[multi].tolist()):
                    seg = lpos[s:s + k].tolist()
                    rngs[int(tid[seg[0]])].shuffle(seg)
                    lpos[s:s + k] = seg
            g_tid = tid[lpos[lstarts]]
            g_node = nodes[lpos[lstarts]]
            c_slot, c_safe, revoked = self._match_deflections(
                conf_rows, g_tid, g_node, need, span,
                key[winner], nodes[winner], is_elig[winner], first,
            )
            if revoked is not None:
                first = first[~revoked]
                winner = winner[~revoked]
            if self.counters is not None or self.auditor is not None:
                # Occupancy peaks and audit records depend on event order:
                # list the groups by first loser, the reference's node
                # order, not node id.
                # (A slot's contenders share one node, so ``lfirst`` of a
                # group head names its node's first loser.)
                go = np.argsort(lfirst[lstarts])
                cnt = need[go]
                at = np.repeat(lstarts[go] - (np.cumsum(cnt) - cnt), cnt)
                at += np.arange(lpos.size)
                lpos, c_slot, c_safe = lpos[at], c_slot[at], c_safe[at]
            deflected = (tid[lpos], pid[lpos], c_slot >> 1, ~c_safe)

        win_at = np.arange(n, dtype=np.int64)
        win_at[cpos] = -1
        win_at[first] = winner
        return win_at[win_at >= 0], deflected

    def _incidence(self):
        """Deflection candidates per node (CSR): in-edge slots, then out.

        Over a union of networks, each network's nodes in turn, its slots
        shifted by its edge offset (a slot is ``edge << 1 | direction``).
        Built from the edge lists, not the geometry's slot-id tuples, so
        the networks of a batch never build those.
        """
        if self._inc is None:
            ptrs = [np.zeros(1, dtype=np.int64)]
            parts = []
            base = 0
            for geo, off in zip(self._geos, self._net_edge_off):
                n_in = np.fromiter(map(len, geo.in_edges), dtype=np.int64)
                sizes = n_in + np.fromiter(
                    map(len, geo.out_edges), dtype=np.int64
                )
                edges = np.fromiter(
                    chain.from_iterable(
                        i + o for i, o in zip(geo.in_edges, geo.out_edges)
                    ),
                    dtype=np.int64,
                    count=int(sizes.sum()),
                )
                ends = np.cumsum(sizes)
                # Each node's first n_in entries are in-edges: backward.
                rank = np.arange(edges.size) - np.repeat(ends - sizes, sizes)
                slots = ((edges + off) << 1) | (
                    rank < np.repeat(n_in, sizes)
                )
                ptrs.append(base + ends)
                parts.append(slots)
                base += slots.size
            self._inc = (np.concatenate(ptrs), np.concatenate(parts))
        return self._inc

    def _match_deflections(
        self, conf_rows, g_tid, g_node, need, span,
        w_key, w_node, w_pending, w_first,
    ):
        """Loser slot matching for every (trial, node) loser group at once.

        Each group takes its first ``need`` free incident slots in the
        reference's order: safe in-edges (Lemma 2.1), unsafe in-edges, then
        out-edges, each in geometry order.  The ``w_*`` arrays describe each
        contender group's winner: its ``trial * span + slot`` key (sorted,
        so also the set of granted slots), node, pending flag and the
        group's first appearance.  Every slot belongs to one node, so groups
        never compete.  A group still short revokes injection grants at its
        node, latest first.  Returns the matched slots and safe flags,
        grouped by group in candidate order, and the revoked contender
        groups as a mask (or None).
        """
        num_edges = self._num_edges
        sr, sp = np.nonzero(self.safe_mask[conf_rows])
        srow = conf_rows[sr]
        safe_edges = np.sort(
            srow * num_edges
            + self._flat["last_edge"][srow * self.num_packets + sp]
        )
        ptr, inc = self._incidence()
        lo = ptr[g_node]
        cnt = ptr[g_node + 1] - lo
        grp = np.repeat(np.arange(g_node.size), cnt)
        slot = inc[lo[grp] + np.arange(grp.size) - (np.cumsum(cnt) - cnt)[grp]]
        ct = g_tid[grp]
        free = ~_member(w_key, ct * span + slot)
        grp, slot, ct = grp[free], slot[free], ct[free]
        into = (slot & 1) == 1
        safe = into & _member(safe_edges, ct * num_edges + (slot >> 1))
        o = np.argsort(grp * 3 + 2 - into - safe, kind="stable")
        grp, slot, safe = grp[o], slot[o], safe[o]
        avail = np.bincount(grp, minlength=g_node.size)
        rank = np.arange(grp.size) - (np.cumsum(avail) - avail)[grp]
        take = rank < need[grp]
        grp, slot, safe = grp[take], slot[take], safe[take]
        short = np.nonzero(avail < need)[0]
        if not short.size:
            return slot, safe, None
        # Deflected residents must move: revoke injection grants at the node
        # and recycle their slots, as the reference does.
        revoked = np.zeros(w_key.size, dtype=bool)
        w_tid = w_key // span
        extra_grp: List[int] = []
        extra_slot: List[int] = []
        for g in short.tolist():
            i, node = int(g_tid[g]), int(g_node[g])
            missing = int(need[g] - avail[g])
            at = np.nonzero(w_pending & (w_tid == i) & (w_node == node))[0]
            grants = at[np.argsort(w_first[at])].tolist()
            while missing and grants:
                h = grants.pop()
                revoked[h] = True
                extra_grp.append(g)
                extra_slot.append(int(w_key[h] - i * span))
                missing -= 1
            if missing:
                raise CapacityError(
                    f"step {int(self.t[i])}: node "
                    f"{node - int(self._node_off[i])} has {int(need[g])} "
                    f"deflected packets but only {int(need[g]) - missing} "
                    f"free slots"
                )
        grp = np.concatenate([grp, np.asarray(extra_grp, dtype=np.int64)])
        slot = np.concatenate([slot, np.asarray(extra_slot, dtype=np.int64)])
        safe = np.concatenate([safe, np.zeros(len(extra_grp), dtype=bool)])
        o = np.argsort(grp, kind="stable")
        return slot[o], safe[o], revoked
