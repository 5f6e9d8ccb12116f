"""Invariant audits of the lockstep batch kernel.

:class:`TrialAuditor` is the audit state a
:class:`~repro.sim.engine_lockstep.LockstepEngine` keeps when built with
``audit=True``: the array form of :class:`~repro.core.InvariantAuditor`
(invariants ``I_a``–``I_f``, :mod:`repro.core.invariants`) for every trial
of a frontier batch.  The engine reports each tick's injections (``I_a``)
and deflections (``I_b``, backward and safe) as it applies them, and calls
:meth:`TrialAuditor.after_tick` once the tick's moves are done, for the
trials that executed it — where the reference runs its post-step hook.
Fast-forwarded steps execute nothing, so they stay unaudited, exactly as
on the reference.

:meth:`TrialAuditor.result` gives each trial the
:class:`~repro.core.AuditReport` of its reference run: the same
violations (invariant, time and detail string, in the same order), the
same ``checks_run`` counts and ``max_set_congestion_seen``, so ``ok`` and
``summary()`` agree too.  Violations are rare, so their detail strings
are formatted in Python loops; the predicates themselves are array
operations over the stacked state.

It lives in its own module so unaudited batches never load it (see
:mod:`repro.sim.lockstep_counters`).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..core.invariants import AuditReport, Violation
from .engine_lockstep import _ABSORBED, _ACTIVE

#: ``checks_run`` keys, in the column order of :attr:`TrialAuditor.checks`
_CHECKS = ("I_a", "I_b", "I_b_paths", "I_c", "I_d", "I_e", "I_f")


class TrialAuditor:
    """Per-trial invariant audits of a frontier :class:`LockstepEngine`.

    State is per trial, never per tick: each trial's violations, its
    ``checks_run`` counts, its largest per-set congestion so far, and the
    per-set congestions ``C_i^0`` of its preselected paths that ``I_e``'s
    conservation check compares against.  ``congestion_bound`` is the
    reference auditor's optional ``I_e`` bound.
    """

    def __init__(self, engine, congestion_bound=None) -> None:
        # The engine passes itself to each method instead of being kept
        # here, as for the counters: no reference cycle.
        trials = engine.trials
        self.trials = trials
        self.congestion_bound = congestion_bound
        self.violations = [[] for _ in range(trials)]
        self.checks = np.zeros((trials, len(_CHECKS)), dtype=np.int64)
        self.max_seen = np.zeros(trials, dtype=np.int64)
        self._sets = int(engine._num_sets.max())
        # Nothing has moved yet: every packet's current path is its
        # preselected one (Section 2.4's C_i^0 counts all packets).
        n = engine.num_packets
        rows = np.arange(trials)
        rr, pp = np.divmod(np.arange(trials * n), n)
        buf, live = self._paths(engine, rr, pp)
        self.initial = self._congestion(engine, rows, rr, pp, buf, live)

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _paths(engine, at, pp):
        """Path-buffer rows of packets ``(at, pp)`` and their live columns."""
        soa = engine.soa
        buf = soa.path_buf[at, pp]
        live = np.arange(soa.width) >= soa.cursor[at, pp][:, None]
        return buf, live

    def _congestion(self, engine, rows, rr, pp, buf, live):
        """Per-set congestion ``C_i^t`` of ``rows``: ``(rows, sets)``.

        ``rr`` indexes ``rows`` for each listed packet, ``pp`` is its id
        and ``buf``/``live`` its current path; an edge a path crosses
        twice counts twice, as in :func:`~repro.paths.per_set_congestion`.
        One sort of the ``(row, set, edge)`` keys counts each edge's
        users, so the cost follows the path lengths, not the network.
        """
        sets, edges = self._sets, engine._num_edges
        out = np.zeros(rows.size * sets, dtype=np.int64)
        cell = (rr * sets + engine.fr.set_index[rows[rr], pp]) * edges
        keys = np.sort((cell[:, None] + buf)[live])
        if keys.size:
            head = np.empty(keys.size, dtype=bool)
            head[0] = True
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            users = np.diff(np.append(starts, keys.size))
            cells = keys[starts] // edges
            first = np.empty(cells.size, dtype=bool)
            first[0] = True
            np.not_equal(cells[1:], cells[:-1], out=first[1:])
            at = np.flatnonzero(first)
            out[cells[at]] = np.maximum.reduceat(users, at)
        return out.reshape(rows.size, sets)

    def _record(self, found) -> None:
        """Append ``(trial, invariant, time, detail)`` rows in order."""
        violations = self.violations
        for i, invariant, t, detail in found:
            violations[i].append(Violation(invariant, t, detail))

    # -------------------------------------------------------------- events

    def injected(self, engine, tid, pid, nodes, crowded) -> None:
        """``I_a`` for one tick's injections, in granted order."""
        self.checks[:, 0] += np.bincount(tid, minlength=self.trials)
        if not crowded.any():
            return
        t = engine.t
        self._record(
            (
                i,
                "I_a",
                int(t[i]),
                f"packet {p} injected at node {v} while other packets "
                "were present",
            )
            for i, p, v in zip(
                tid[crowded].tolist(),
                pid[crowded].tolist(),
                (nodes - engine._node_off[tid])[crowded].tolist(),
            )
        )

    def deflected(self, engine, tid, pid, edges, back, unsafe) -> None:
        """``I_b`` for one tick's deflections, in the reference's order:
        unsafe ones, and safe ones that went forward."""
        self.checks[:, 1] += np.bincount(tid, minlength=self.trials)
        bad = unsafe | ~back
        if not bad.any():
            return
        t = engine.t
        self._record(
            (
                i,
                "I_b",
                int(t[i]),
                f"packet {p} deflected "
                f"{'unsafely' if u else 'forward'} on edge {e}",
            )
            for i, p, e, u in zip(
                tid[bad].tolist(),
                pid[bad].tolist(),
                (edges - engine._edge_off[tid])[bad].tolist(),
                unsafe[bad].tolist(),
            )
        )

    # ----------------------------------------------------------- post-tick

    def after_tick(self, engine, lt, t_lt) -> None:
        """The reference's post-step scans for the trials ``lt`` that just
        executed steps ``t_lt``: ``I_b`` path validity, ``I_c``, ``I_d``,
        ``I_e`` and, at phase ends, ``I_f``, recorded in that order."""
        soa = engine.soa
        self.checks[lt, 2:6] += 1
        phase_end = (t_lt + 1) % engine._spp[lt] == 0
        self.checks[lt[phase_end], 6] += 1

        # Every unabsorbed packet of ``lt``, in (trial, packet id) order.
        status = soa.status[lt]
        rr, pp = np.nonzero(status != _ABSORBED)
        buf, live = self._paths(engine, lt[rr], pp)
        congestion = self._congestion(engine, lt, rr, pp, buf, live)
        if congestion.size:
            self.max_seen[lt] = np.maximum(
                self.max_seen[lt], congestion.max(axis=1)
            )
        active = status[rr, pp] == _ACTIVE
        found = ([], [], [], [])
        if active.any():
            found = self._scan_active(
                engine, lt, t_lt, phase_end, rr[active], pp[active],
                buf[active], live[active],
            )
        paths, frames, meetings, late = found
        self._record(paths)
        self._record(frames)
        self._record(meetings)
        self._record(self._scan_congestion(engine, lt, t_lt, congestion))
        self._record(late)

    def _scan_active(self, engine, lt, t_lt, phase_end, rr, pp, buf, live):
        """``I_b`` paths, ``I_c``, ``I_d`` and ``I_f`` over the active
        packets ``(lt[rr], pp)``, each as a list of violations in packet
        id order."""
        soa = engine.soa
        fr = engine.fr
        at = lt[rr]
        nodes = soa.node[at, pp]
        t_of = t_lt[rr]
        # Node ids in detail strings are the trial's own, not the union's.
        own = engine._node_off[at]

        # I_b: each current path chains forward from the packet's node.
        cursor = soa.cursor[at, pp]
        prev = np.empty_like(buf)
        prev[:, 1:] = engine._edge_dst[buf[:, :-1]]
        head = np.flatnonzero(cursor < soa.width)
        prev[head, cursor[head]] = nodes[head]
        broken = ((engine._edge_src[buf] != prev) & live).any(axis=1)
        paths = [
            (
                int(at[k]),
                "I_b",
                int(t_of[k]),
                f"packet {int(pp[k])} has an invalid current path at node "
                f"{int(nodes[k] - own[k])}",
            )
            for k in np.flatnonzero(broken).tolist()
        ]

        # I_c: inner-level k = phase - set*m - level lies in 0..m-1.
        levels = engine._node_levels[nodes]
        sets = fr.set_index[at, pp]
        m = engine._m[at]
        phase = (t_lt // engine._spp[lt])[rr]
        frontier = phase - sets * m
        inner = frontier - levels
        frames = []
        outside = np.flatnonzero((inner < 0) | (inner >= m)).tolist()
        if outside:
            depth = engine.net.depth
            for k in outside:
                f, mk = int(frontier[k]), int(m[k])
                span = list(range(max(0, f - mk + 1), min(depth, f) + 1))
                frames.append(
                    (
                        int(at[k]),
                        "I_c",
                        int(t_of[k]),
                        f"packet {int(pp[k])} (set {int(sets[k])}) at level "
                        f"{int(levels[k])}, frame spans {span}",
                    )
                )

        # I_d: at each node, the lowest-id active packet fixes the set;
        # every other packet there of another set is a meeting.
        meetings = []
        key = at * engine._num_nodes + nodes
        order = np.argsort(key, kind="stable")
        sk = key[order]
        if (sk[1:] == sk[:-1]).any():
            first = np.ones(order.size, dtype=bool)
            np.not_equal(sk[1:], sk[:-1], out=first[1:])
            owner = sets[order][first][np.cumsum(first) - 1]
            clash = sets[order] != owner
            if clash.any():
                where = order[clash]
                by_pid = np.argsort(where)
                for k, previous in zip(
                    where[by_pid].tolist(), owner[clash][by_pid].tolist()
                ):
                    meetings.append(
                        (
                            int(at[k]),
                            "I_d",
                            int(t_of[k]),
                            f"sets {previous} and {int(sets[k])} meet at "
                            f"node {int(nodes[k] - own[k])}",
                        )
                    )

        # I_f: at a phase end every packet sits at inner-level <= m - 4.
        late = []
        deep = np.flatnonzero(phase_end[rr] & (inner > m - 4)).tolist()
        for k in deep:
            late.append(
                (
                    int(at[k]),
                    "I_f",
                    int(t_of[k]),
                    f"packet {int(pp[k])} (set {int(sets[k])}) ends phase "
                    f"{int(phase[k])} at inner-level {int(inner[k])} > "
                    f"m-4 = {int(m[k]) - 4}",
                )
            )
        return paths, frames, meetings, late

    def _scan_congestion(self, engine, lt, t_lt, congestion):
        """``I_e`` for ``lt``: per set, conservation against ``C_i^0``,
        then the optional bound, over each trial's own ``num_sets``."""
        grew = congestion > self.initial[lt]
        bound = self.congestion_bound
        over = None
        if bound is not None:
            over = (congestion > bound) & (
                np.arange(self._sets) < engine._num_sets[lt][:, None]
            )
        flagged = grew if over is None else grew | over
        found = []
        for r in np.flatnonzero(flagged.any(axis=1)).tolist():
            i, t = int(lt[r]), int(t_lt[r])
            row = congestion[r].tolist()
            for s in np.flatnonzero(flagged[r]).tolist():
                if grew[r, s]:
                    found.append(
                        (
                            i,
                            "I_e_conservation",
                            t,
                            f"set {s} congestion grew to {row[s]} from "
                            f"C_i^0 = {int(self.initial[i, s])}",
                        )
                    )
                if over is not None and over[r, s]:
                    found.append(
                        (
                            i,
                            "I_e",
                            t,
                            f"set {s} congestion {row[s]} exceeds bound "
                            f"{bound:.2f}",
                        )
                    )
        return found

    # -------------------------------------------------------------- result

    def result(self, i: int) -> AuditReport:
        """Trial ``i``'s report, equal to its reference run's."""
        report = AuditReport()
        report.violations = list(self.violations[i])
        report.checks_run = defaultdict(
            int,
            {
                name: count
                for name, count in zip(_CHECKS, self.checks[i].tolist())
                if count
            },
        )
        report.max_set_congestion_seen = int(self.max_seen[i])
        return report


__all__ = ["TrialAuditor"]
