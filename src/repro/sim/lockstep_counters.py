"""Telemetry counters of the lockstep batch kernel.

:class:`TrialCounters` is the counter state a
:class:`~repro.sim.engine_lockstep.LockstepEngine` keeps when built with
``telemetry=True``; the engine calls its update methods at the points
where the reference engine would emit the matching events (see the
kernel's module docstring).  It lives in its own module so untelemetered
batches never load it: Python compiles a module in one piece, and folding
this into the kernel's module raised the peak memory of a telemetered
tuning study measurably.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..telemetry.counters import COUNTERS_SCHEMA, PHASE_FIELDS
from .engine_lockstep import _EXCITED

#: Queued moves that trigger a fold.  Folding many ticks at once
#: amortizes the fixed cost of the sorts; the bound keeps the queue small
#: (several ticks of a 64-trial batch).
_FOLD_EVERY = 1024

#: Signs of a move's four event slots: inject, leave, arrive, absorb.
_SIGNS = np.array([1, -1, 1, -1], dtype=np.int64)


def _sort_dtype(size: int):
    """Narrowest sort-key dtype holding indexes below ``size``."""
    return np.int16 if size <= 2**15 else np.int64


class TrialCounters:
    """Per-trial event counts of a telemetered :class:`LockstepEngine`.

    :meth:`to_dicts` renders each trial exactly as the reference run's
    :class:`~repro.telemetry.Counters` observer would.  Counts the kernel
    keeps anyway (injections, absorptions, unsafe deflections,
    excitations, wait entries, calms, releases, evictions, crowded
    injections, fast-forwarded steps) are read from the engine; the arrays
    here hold the rest, all ``(trial,)``, ``(trial, packet)``,
    ``(trial, level)`` or ``(trial, phase, field)`` integers, plus a
    bounded queue of occupancy events.
    """

    def __init__(self, engine) -> None:
        # The engine passes itself to each method instead of being kept
        # here: a reference cycle would hold every finished batch's arrays
        # until the cyclic collector ran.
        trials = engine.trials
        self.trials = trials
        self.num_packets = engine.num_packets
        levels = int(engine._node_levels.max()) + 1 if engine._num_nodes else 1
        self.levels = levels

        def zt():
            return np.zeros(trials, dtype=np.int64)

        self.moves = zt()
        self.backward_moves = zt()
        self.rounds = zt()
        self.fast_forwards = zt()
        #: wait entries from the excited state (the rest were normal)
        self.excited_waits = zt()
        #: excited packets calmed by a deflection (round calms: engine)
        self.deflection_calms = zt()
        self.deflections = zt()
        #: time of each trial's latest event (-1: none yet)
        self.last_time = np.full(trials, -1, dtype=np.int64)
        #: level of each packet's latest event, -1 before its injection
        #: (as of the last fold of the move queue)
        self.level = np.full(
            (trials, engine.num_packets), -1, dtype=np.int64
        )
        self.occupancy = np.zeros((trials, levels), dtype=np.int64)
        self.peak = np.zeros((trials, levels), dtype=np.int64)
        # Sort keys over (trial, packet) and (trial, level): 16-bit ones
        # sort by radix, several times faster than 64-bit ones.
        self._packet_key = _sort_dtype(trials * engine.num_packets)
        self._cell_key = _sort_dtype(trials * levels)
        # Moves not folded yet, in event order: each mover's flat (trial,
        # packet) index, level after the move, source level if it was just
        # injected (else -1) and absorbed flag.  A tick adds at most one
        # winner and one deflection per packet, so the buffers never fill.
        room = _FOLD_EVERY + 2 * trials * engine.num_packets
        self._q_at = np.empty(room, dtype=np.int64)
        self._q_new = np.empty(room, dtype=np.int64)
        self._q_born = np.empty(room, dtype=np.int64)
        self._q_gone = np.empty(room, dtype=bool)
        self._queued = 0
        #: :data:`PHASE_FIELDS` totals at each executed PHASE_START, by
        #: ``(trial, phase)``; grown as later phases start
        self.phase_marks = np.zeros(
            (trials, 16, len(PHASE_FIELDS)), dtype=np.int64
        )
        self.phase_started = np.zeros((trials, 16), dtype=bool)

    # ------------------------------------------------------------- updates

    def fast_forward(self, rows, t_rows) -> None:
        """One FAST_FORWARD event per skipping trial, at its pre-skip time."""
        self.fast_forwards[rows] += 1
        self.last_time[rows] = t_rows

    def phase_start(self, engine, rows, phases) -> None:
        """PHASE_START for ``rows``; opens a per-phase bucket each."""
        have = self.phase_started.shape[1]
        if int(phases.max()) >= have:
            more = max(have, int(phases.max()) + 1 - have)
            self.phase_marks = np.pad(
                self.phase_marks, ((0, 0), (0, more), (0, 0))
            )
            self.phase_started = np.pad(self.phase_started, ((0, 0), (0, more)))
        self.phase_marks[rows, phases] = self._totals(engine)[rows]
        self.phase_started[rows, phases] = True

    def wait_entries(self, tid, old_state) -> None:
        """Split the ``old->wait`` transitions of packets about to wait."""
        excited = old_state == _EXCITED
        if excited.any():
            self.excited_waits += np.bincount(
                tid[excited], minlength=self.trials
            )

    def count_moves(
        self, engine, w_tid, w_pid, w_from, w_back, w_inj, w_gone, deflected
    ) -> None:
        """Count one tick's moves and queue them for the occupancy fold.

        ``w_*`` are the tick's winners in granted order: trial, packet,
        node before moving, backward and injected flags, and the absorbed
        mask (None: nobody absorbed).  ``deflected`` lists the deflections
        in the reference's order, or is None.
        """
        self.moves += np.bincount(w_tid, minlength=self.trials)
        if w_back.any():
            self.backward_moves += np.bincount(
                w_tid[w_back], minlength=self.trials
            )
        start = self._queued
        end = self._push(engine, w_tid, w_pid, w_gone)
        if w_inj.any():
            self._q_born[start:end][w_inj] = engine._node_levels[
                w_from[w_inj]
            ]
        if deflected is not None:
            self.deflections += np.bincount(
                deflected[0], minlength=self.trials
            )
            self._push(engine, deflected[0], deflected[1], None)
        if self._queued >= _FOLD_EVERY:
            self._fold_queue()

    def _push(self, engine, tid, pid, gone) -> int:
        """Queue moves of ``(tid, pid)``, now at their new nodes."""
        start = self._queued
        end = start + tid.size
        at = self._q_at[start:end]
        np.multiply(tid, self.num_packets, out=at)
        at += pid
        self._q_new[start:end] = engine._node_levels[
            engine.soa.node.reshape(-1)[at]
        ]
        self._q_born[start:end] = -1
        self._q_gone[start:end] = False if gone is None else gone
        self._queued = end
        return end

    def _fold_queue(self) -> None:
        """Fold the queued moves into occupancy and running peaks.

        Each move's old level is its packet's level at its previous event
        (its source level when it was just injected), never its node
        before the move: an odd fast-forward span moves a packet without
        an event.  Each move then contributes, in order, inject (+1 old),
        move (-1 old, +1 new, unless the levels are equal) and absorb (-1
        new) events.  A stable sort groups them by ``(trial, level)`` cell
        in event order; a cell's peak is its occupancy before the queue
        plus its highest prefix sum, its new occupancy that plus the total.
        """
        n = self._queued
        if not n:
            return
        self._queued = 0
        at = self._q_at[:n]
        new = self._q_new[:n]
        born = self._q_born[:n]
        gone = self._q_gone[:n]
        # Previous level of each move's packet, from the one before it.
        seen = self.level.reshape(-1)
        by_packet = at.astype(self._packet_key).argsort(kind="stable")
        p_at = at[by_packet]
        p_new = new[by_packet]
        head = np.empty(at.size, dtype=bool)
        head[0] = True
        np.not_equal(p_at[1:], p_at[:-1], out=head[1:])
        prev = np.empty_like(p_new)
        prev[1:] = p_new[:-1]
        prev[head] = seen[p_at[head]]
        tail = np.empty_like(head)
        tail[:-1] = head[1:]
        tail[-1] = True
        seen[p_at[tail]] = p_new[tail]
        old = np.empty_like(prev)
        old[by_packet] = prev
        injected = born >= 0
        old[injected] = born[injected]
        # Per move: inject (+1 old), move (-1 old, +1 new), absorb (-1 new).
        cell_old = (at // self.num_packets) * self.levels + old
        key = np.empty((n, 4), dtype=self._cell_key)
        key[:, 0] = cell_old
        key[:, 1] = cell_old
        key[:, 2] = cell_old + (new - old)
        key[:, 3] = key[:, 2]
        live = np.empty((n, 4), dtype=bool)
        live[:, 0] = injected
        np.not_equal(new, old, out=live[:, 1])
        live[:, 2] = live[:, 1]
        live[:, 3] = gone
        live = live.reshape(-1)
        key = key.reshape(-1)[live]
        sign = np.tile(_SIGNS, n)[live]
        order = key.argsort(kind="stable")
        key = key[order]
        sign = sign[order]
        run = sign.cumsum()
        head = np.empty(key.size, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        starts = head.nonzero()[0]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = key.size - 1
        before = run[starts] - sign[starts]
        top = np.maximum.reduceat(run, starts) - before
        cells = key[starts].astype(np.intp)
        occupancy = self.occupancy.reshape(-1)
        peak = self.peak.reshape(-1)
        now = occupancy[cells]
        peak[cells] = np.maximum(peak[cells], now + top)
        occupancy[cells] = now + (run[ends] - before)

    # -------------------------------------------------------------- render

    def _totals(self, eng):
        """:data:`PHASE_FIELDS` counts so far, one row per trial."""
        totals = np.empty((self.trials, len(PHASE_FIELDS)), dtype=np.int64)
        totals[:, 0] = self.rounds
        np.add(eng.num_active, eng.num_absorbed, out=totals[:, 1])
        totals[:, 2] = self.moves
        totals[:, 3] = self.deflections
        totals[:, 4] = eng.unsafe_deflections
        totals[:, 5] = eng.num_absorbed
        totals[:, 6] = eng.wait_entries
        totals[:, 7] = eng.excitations
        return totals

    def to_dicts(self, eng) -> List[dict]:
        """Every trial's snapshot, each equal to ``Counters.to_dict()``."""
        self._fold_queue()
        totals = self._totals(eng)
        # Per-phase buckets: each started phase runs up to the next one's
        # mark, or to the final totals.
        rows, phases = self.phase_started.nonzero()
        marks = self.phase_marks[rows, phases]
        ends = totals[rows]
        same = rows[1:] == rows[:-1]
        ends[:-1][same] = marks[1:][same]
        labels = [
            str(k)
            for k in range(max(self.levels, self.phase_started.shape[1]))
        ]
        buckets: List[dict] = [{} for _ in range(self.trials)]
        for i, phase, bucket in zip(
            rows.tolist(), phases.tolist(), (ends - marks).tolist()
        ):
            buckets[i][labels[phase]] = dict(zip(PHASE_FIELDS, bucket))
        phases_seen = np.bincount(rows, minlength=self.trials).tolist()
        columns = zip(
            totals.tolist(),
            eng.isolation_violations.tolist(),
            self.backward_moves.tolist(),
            self.excited_waits.tolist(),
            (eng.round_calms + self.deflection_calms).tolist(),
            (eng.phase_releases + eng.wait_evictions).tolist(),
            self.fast_forwards.tolist(),
            eng.steps_skipped.tolist(),
            (eng.t > 0).tolist(),
            self.last_time.tolist(),
            self.peak.tolist(),
            phases_seen,
            buckets,
        )
        return [self._snapshot(labels, *column) for column in columns]

    @staticmethod
    def _snapshot(
        labels, totals, crowded, backward, excited_waits, calms, releases,
        fast_forwards, skipped, ran, last, peaks, phases, per_phase,
    ) -> dict:
        (rounds, injected, moves, deflections, unsafe, absorbed, waits,
         excitations) = totals
        transitions = {
            "excited->normal": calms,
            "excited->wait": excited_waits,
            "normal->excited": excitations,
            "normal->wait": waits - excited_waits,
            "wait->normal": releases,
        }
        by_kind = {
            "absorb": absorbed,
            "deflect": deflections - unsafe,
            "fast_forward": fast_forwards,
            "inject": injected,
            "move": moves,
            "phase_start": phases,
            "round_start": rounds,
            "state": sum(transitions.values()),
            "unsafe_deflect": unsafe,
        }
        return {
            "schema": COUNTERS_SCHEMA,
            "runs": 1,
            "events_total": sum(by_kind.values()),
            "by_kind": {k: v for k, v in by_kind.items() if v},
            "injections": {
                "isolated": injected - crowded,
                "crowded": crowded,
            },
            "moves": {"forward": moves - backward, "backward": backward},
            "deflections": {"safe": deflections - unsafe, "unsafe": unsafe},
            "absorptions": absorbed,
            "state_transitions": {
                k: v for k, v in transitions.items() if v
            },
            "fast_forwards": fast_forwards,
            "steps_fast_forwarded": skipped,
            "phases_seen": phases,
            "rounds_seen": rounds,
            # A trial's first step or skip starts at t = 0 with an event:
            # a round start, a skip, or (naive) an injection.
            "first_event_time": 0 if ran else None,
            "last_event_time": last if last >= 0 else None,
            "level_peaks": {
                labels[level]: peak for level, peak in enumerate(peaks) if peak
            },
            "per_phase": per_phase,
        }


__all__ = ["TrialCounters"]
