"""Lockstep multi-trial batch kernel (stacked struct-of-arrays).

:class:`LockstepEngine` advances a whole Monte Carlo batch of trials over
one shared :class:`~repro.paths.RoutingProblem` in lockstep: every
per-packet field of the reference engine becomes an array with a leading
``trial`` axis (:class:`~repro.sim.soa.StackedPacketArrays`),
so one "tick" of the batch advances every live trial by one executed step
with a handful of numpy operations amortized across the batch.  Trials
share geometry, paths, and initial packet layout exactly — they differ
only in their RNG streams — which is precisely the shape of
``sweep --fixed-problem`` shards and tuning rungs.

Equivalence contract
--------------------
Per trial, a lockstep run is **byte-identical** to the per-trial
reference :class:`~repro.sim.Engine` run with the same seeds: equal
:class:`~repro.sim.RunResult` fields including delivery times, deflection
counts, and router extras.  The kernel preserves each trial's RNG draw
order exactly:

* excitation coins are drawn per trial as one ``Generator.random(n)``
  call over that trial's active normal packets in active-id order (the
  batched coin buffer is filled trial-segment by trial-segment from each
  trial's own router generator);
* arbitration tie-breaks and loser shuffles come from each trial's own
  engine generator, drawn only when *that trial's* step is contended —
  a conflicted trial falls out of the vectorized fast path for that tick
  and replays the reference arbitration order on its own slot segment,
  while the other trials stay on the batched path.

Per-trial divergence is handled with masks: each trial has its own clock
``t[i]`` (quiescence fast-forward skips different spans per trial),
finished trials drop out of the live set, and the conflict-free fast
path / contended fallback split is decided per ``(trial, slot)`` — a
conflict in one trial never serializes the others.

Not supported (callers peel off to the per-trial engines): observers /
tracing, post-step hooks (the invariant auditor), arrival schedules, and
routers other than the frontier-frame algorithm and the naive
path-following baseline.  ``repro.experiments.batch.TrialExecutor``
applies exactly that peel-off policy when grouping chunks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CapacityError, ReproError, SimulationError
from ..rng import RngLike, make_rng
from .metrics import RunResult
from .soa import StackedFrontierArrays, StackedPacketArrays, require_numpy

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatched flag
    np = None

_PENDING = 0
_ACTIVE = 1
_ABSORBED = 2
_WAIT = 1
_NORMAL = 2
_EXCITED = 3
#: sentinel larger than any injection phase (masked minima)
_NO_PHASE = 2**62


def _isolation_flags(act_nodes: List[int], inj_nodes: List[int]) -> List[bool]:
    """Reference isolation test: alone at the node, sole injector."""
    occ: Dict[int, int] = {}
    for nd in act_nodes:
        occ[nd] = occ.get(nd, 0) + 1
    cnt: Dict[int, int] = {}
    for nd in inj_nodes:
        cnt[nd] = cnt.get(nd, 0) + 1
    return [occ.get(nd, 0) == 0 and cnt[nd] == 1 for nd in inj_nodes]


class LockstepEngine:
    """Stacked-array twin of the reference engine for whole trial batches.

    Construct through :meth:`frontier` or :meth:`naive`.  ``run`` returns
    one :class:`RunResult` per trial, in input order, each byte-identical
    to the corresponding per-trial engine run.
    """

    def __init__(
        self,
        problem,
        *,
        mode: str,
        rngs: Sequence,
        router_rngs: Optional[Sequence] = None,
        num_sets: int = 0,
        m: int = 1,
        w: int = 1,
        q: float = 0.0,
        set_rows=None,
        enable_fast_forward: bool = True,
        geometry=None,
    ) -> None:
        require_numpy()
        if getattr(problem, "arrival_schedule", None) is not None:
            raise ReproError(
                "the lockstep kernel does not support arrival schedules; "
                "run those trials on the per-trial engines instead"
            )
        self.problem = problem
        self.net = problem.net
        self.mode = mode
        self.router_name = (
            "FrontierFrameRouter" if mode == "frontier" else "NaivePathRouter"
        )
        self.rngs = [make_rng(r) for r in rngs]
        trials = len(self.rngs)
        self.trials = trials
        self._enable_fast_forward = enable_fast_forward

        geo = geometry if geometry is not None else self.net.geometry()
        self._geo = geo
        ga = geo.arrays()
        self._edge_src = ga.edge_src
        self._edge_dst = ga.edge_dst
        self._node_levels = ga.node_levels
        self._num_nodes = ga.num_nodes
        self._num_edges = ga.num_edges

        self.soa = StackedPacketArrays.from_problem(problem, trials)
        n = self.soa.num_packets
        self.num_packets = n

        def zt():
            return np.zeros(trials, dtype=np.int64)

        self.t = zt()
        self.steps_executed = zt()
        self.steps_skipped = zt()
        self.num_active = zt()
        self.num_absorbed = zt()
        self.unsafe_deflections = zt()
        self.excitations = zt()
        self.wait_entries = zt()
        self.wait_evictions = zt()
        self.phase_releases = zt()
        self.round_calms = zt()
        self.isolation_violations = zt()
        self.num_waiting = zt()
        self.num_excited = zt()
        self.current_phase = np.full(trials, -1, dtype=np.int64)

        #: active packet ids in injection order, row-packed per trial
        self.act_mat = np.zeros((trials, n), dtype=np.int64)
        self.act_cnt = zt()
        #: eligible pending packets (ascending pid order == sorted order)
        self.elig_mask = np.zeros((trials, n), dtype=bool)
        self.elig_cnt = zt()
        #: packets whose (node, last_edge) form last step's safe set E'
        self.safe_mask = np.zeros((trials, n), dtype=bool)

        if mode == "frontier":
            if router_rngs is None or len(router_rngs) != trials:
                raise ReproError(
                    "frontier lockstep needs one router rng per trial"
                )
            self._router_rngs = list(router_rngs)
            self._num_sets = int(num_sets)
            self._m = int(m)
            self._w = int(w)
            self._q = float(q)
            self._spp = self._m * self._w
            set_idx = np.asarray(set_rows, dtype=np.int64)
            if set_idx.shape != (trials, n):
                raise ReproError(
                    f"set_rows must be shaped (trials, packets) = "
                    f"({trials}, {n}); got {set_idx.shape}"
                )
            src_levels = self._node_levels[self.soa.source]
            inj_phase = set_idx * self._m + (self._m - 1) + src_levels[None, :]
            self.fr = StackedFrontierArrays(set_idx, inj_phase)
            self._set_offsets = (
                np.arange(self._num_sets, dtype=np.int64) * self._m
            )
            self._target_by_set = np.zeros(
                (trials, self._num_sets), dtype=np.int64
            )
        else:
            self.fr = None
            self._router_rngs = None
            self._num_sets = 0
            self._m = self._w = 1
            self._q = 0.0
            self._spp = 0
            # NaivePathRouter.attach marks everything eligible immediately.
            self.elig_mask[:] = True
            self.elig_cnt[:] = n

    # ------------------------------------------------------------- factories

    @classmethod
    def frontier(
        cls,
        problem,
        params,
        *,
        router_seeds: Sequence[RngLike],
        engine_seeds: Sequence[RngLike],
        set_rows=None,
        enable_fast_forward: bool = True,
        geometry=None,
    ) -> "LockstepEngine":
        """Batch kernel for the paper's frontier-frame algorithm.

        Trial ``i`` mirrors the reference ``Engine(problem,
        FrontierFrameRouter(params, seed=router_seeds[i]),
        seed=engine_seeds[i])`` exactly: when ``set_rows`` is omitted each
        trial's frontier-set assignment is drawn from its own router
        generator (leaving the excitation-coin stream aligned with the
        reference); pass precomputed rows (e.g. conditioned assignments)
        to skip the draw, exactly as passing ``set_of`` does on the
        reference router.
        """
        require_numpy()
        from ..core.frontier import assign_frontier_sets

        if params.depth != problem.net.depth:
            from ..errors import ParameterError

            raise ParameterError(
                f"params built for depth {params.depth} but network has "
                f"depth {problem.net.depth}"
            )
        if params.num_packets != problem.num_packets:
            from ..errors import ParameterError

            raise ParameterError(
                f"params built for {params.num_packets} packets but "
                f"problem has {problem.num_packets}"
            )
        router_rngs = [make_rng(s) for s in router_seeds]
        if len(router_rngs) != len(list(engine_seeds)):
            raise ReproError("router_seeds and engine_seeds lengths differ")
        if set_rows is None:
            set_rows = [
                assign_frontier_sets(problem, params.num_sets, rng)
                for rng in router_rngs
            ]
        return cls(
            problem,
            mode="frontier",
            rngs=engine_seeds,
            router_rngs=router_rngs,
            num_sets=params.num_sets,
            m=params.m,
            w=params.w,
            q=params.q,
            set_rows=np.asarray(set_rows, dtype=np.int64),
            enable_fast_forward=enable_fast_forward,
            geometry=geometry,
        )

    @classmethod
    def naive(
        cls,
        problem,
        *,
        engine_seeds: Sequence[RngLike],
        geometry=None,
    ) -> "LockstepEngine":
        """Batch kernel for the naive path-following baseline."""
        return cls(
            problem, mode="naive", rngs=engine_seeds, geometry=geometry
        )

    # ------------------------------------------------------------------- run

    @property
    def done(self) -> bool:
        """All packets of every trial absorbed."""
        return bool((self.num_absorbed == self.num_packets).all())

    def run(self, max_steps: int) -> List[RunResult]:
        """Run every trial to delivery or the step budget; per-trial results."""
        frontier = self.fr is not None
        ff = frontier and self._enable_fast_forward
        bulk = frontier and not self._enable_fast_forward
        live = (self.num_absorbed < self.num_packets) & (self.t < max_steps)
        while live.any():
            lt = np.nonzero(live)[0]
            if ff:
                self._fast_forward(lt)
            elif bulk:
                self._bulk_advance(lt, max_steps)
                lt = lt[self.t[lt] < max_steps]
                if not lt.size:
                    break
            self._step(lt)
            live = (self.num_absorbed < self.num_packets) & (
                self.t < max_steps
            )
        return [self.result(i) for i in range(self.trials)]

    # ------------------------------------------------------------------ step

    def _flat_active(self, rows):
        """Flat ``(tid, pid)`` arrays over ``rows``' active packets.

        Row-major order: trials ascending, and within a trial the packed
        ``act_mat`` row order — the reference's injection order.
        """
        acnt = self.act_cnt[rows]
        cols = np.arange(self.num_packets, dtype=np.int64)
        amask = cols[None, :] < acnt[:, None]
        rr = np.nonzero(amask)[0]
        return rows[rr], self.act_mat[rows][amask]

    def _step(self, lt) -> None:
        """Advance every trial in ``lt`` by one executed step."""
        soa = self.soa
        fr = self.fr
        t_lt = self.t[lt]

        a_tid, a_pid = self._flat_active(lt)
        if fr is not None:
            self._pre_step(lt, t_lt, a_tid, a_pid)

        erow, ecol = np.nonzero(self.elig_mask[lt])
        e_tid = lt[erow]
        e_pid = ecol.astype(np.int64)
        na, ne = a_tid.size, e_tid.size
        if na + ne == 0:
            if fr is not None:
                self._post_step(lt, t_lt)
            self.safe_mask[lt] = False
            self.t[lt] += 1
            self.steps_executed[lt] += 1
            return
        if ne:
            tid = np.concatenate([a_tid, e_tid])
            pid = np.concatenate([a_pid, e_pid])
            is_elig = np.zeros(na + ne, dtype=bool)
            is_elig[na:] = True
            # Stable sort groups each trial's segment as [active in
            # injection order, eligible sorted] — the reference's
            # participant order.
            order = np.argsort(tid * 2 + is_elig, kind="stable")
            tid = tid[order]
            pid = pid[order]
            is_elig = is_elig[order]
        else:
            tid, pid = a_tid, a_pid
            is_elig = np.zeros(na, dtype=bool)

        nodes = soa.node[tid, pid]
        cur = soa.cursor[tid, pid]
        width = soa.width
        if fr is not None and self.num_waiting[lt].any():
            wait_at = (fr.state[tid, pid] == _WAIT) & (
                nodes == fr.wait_node[tid, pid]
            )
            any_wait = bool(wait_at.any())
        else:
            wait_at = None
            any_wait = False
        if int(cur.max()) >= width:  # pragma: no cover - malformed guard
            bad = cur >= width
            if any_wait:
                bad &= ~wait_at
            if bad.any():
                b = int(np.argmax(bad))
                raise SimulationError(
                    f"packet {int(pid[b])} has an empty current path at "
                    f"node {int(nodes[b])}"
                )
            cur = np.minimum(cur, width - 1)
        heads = soa.path_buf[tid, pid, cur]
        if any_wait:
            edges = np.where(wait_at, fr.wait_edge[tid, pid], heads)
        else:
            edges = heads
        backward = self._edge_src[edges] != nodes
        slots = (edges << 1) + backward

        # -- (trial, slot) conflict split -----------------------------------
        span = self._num_edges << 1
        key = tid * span + slots
        sk = np.sort(key)
        dup = sk[1:] == sk[:-1]
        conf_rows = np.unique(sk[:-1][dup] // span) if dup.any() else None

        if conf_rows is None:
            self.safe_mask[lt] = False
            self._apply_clean(tid, pid, nodes, edges, backward, wait_at,
                              is_elig)
        else:
            # Snapshot conflicted trials' safe sets before the global clear.
            safe_snap = {}
            for i in conf_rows.tolist():
                sp = np.nonzero(self.safe_mask[i])[0]
                safe_snap[i] = (
                    soa.node[i, sp].tolist(),
                    soa.last_edge[i, sp].tolist(),
                )
            self.safe_mask[lt] = False
            conf_flag = np.zeros(self.trials, dtype=bool)
            conf_flag[conf_rows] = True
            clean = ~conf_flag[tid]
            self._apply_clean(
                tid[clean],
                pid[clean],
                nodes[clean],
                edges[clean],
                backward[clean],
                wait_at[clean] if any_wait else None,
                is_elig[clean],
            )
            start = np.searchsorted(tid, conf_rows, side="left")
            end = np.searchsorted(tid, conf_rows, side="right")
            for idx in range(conf_rows.size):
                s, e = int(start[idx]), int(end[idx])
                self._step_contended_row(
                    int(conf_rows[idx]),
                    pid[s:e],
                    nodes[s:e],
                    edges[s:e],
                    backward[s:e],
                    wait_at[s:e] if any_wait else None,
                    slots[s:e],
                    is_elig[s:e],
                    safe_snap[int(conf_rows[idx])],
                )

        if fr is not None:
            self._post_step(lt, t_lt)
        self.t[lt] += 1
        self.steps_executed[lt] += 1

    # -------------------------------------------------------------- pre-step

    def _pre_step(self, lt, t_lt, a_tid, a_pid) -> None:
        """Frontier pre-step across trials: marks, wait entries, coins."""
        fr = self.fr
        soa = self.soa
        trials = self.trials
        spp, w_, q = self._spp, self._w, self._q
        ps_sel = (t_lt % spp) == 0
        if ps_sel.any():
            ps = lt[ps_sel]
            phase = self.t[ps] // spp
            self.current_phase[ps] = phase
            sub_elig = self.elig_mask[ps]
            newly = (
                (soa.status[ps] == _PENDING)
                & ~sub_elig
                & (fr.injection_phase[ps] <= phase[:, None])
            )
            if newly.any():
                self.elig_mask[ps] = sub_elig | newly
                self.elig_cnt[ps] += newly.sum(axis=1)
        rs_sel = (t_lt % w_) == 0
        if rs_sel.any():
            rs = lt[rs_sel]
            tr = self.t[rs]
            phase = tr // spp
            rnd = (tr % spp) // w_
            tinner = np.where(rnd <= 1, 0, rnd - 1)
            self._target_by_set[rs] = (phase - tinner)[:, None] - (
                self._set_offsets[None, :]
            )
            if a_tid.size:
                rflag = np.zeros(trials, dtype=bool)
                rflag[rs] = True
                sel = rflag[a_tid]
                if sel.any():
                    wt, wp = a_tid[sel], a_pid[sel]
                    mask = (
                        (fr.state[wt, wp] != _WAIT)
                        & (soa.last_direction[wt, wp] == 0)
                        & (
                            self._node_levels[soa.node[wt, wp]]
                            == self._target_by_set[wt, fr.set_index[wt, wp]]
                        )
                    )
                    if mask.any():
                        mt, mp = wt[mask], wp[mask]
                        fr.state[mt, mp] = _WAIT
                        fr.wait_node[mt, mp] = soa.node[mt, mp]
                        fr.wait_edge[mt, mp] = soa.last_edge[mt, mp]
                        wc = np.bincount(mt, minlength=trials)
                        self.wait_entries += wc
                        self.num_waiting += wc
        # Excitation coins: each trial draws one Generator.random(n) over
        # its active normal packets in active-id order, exactly the
        # reference stream; the flat buffer just batches the comparison.
        if q > 0.0 and a_tid.size:
            normal = fr.state[a_tid, a_pid] == _NORMAL
            if normal.any():
                nt = a_tid[normal]
                counts = np.bincount(nt, minlength=trials)
                u = np.empty(nt.size, dtype=np.float64)
                off = 0
                for i in np.nonzero(counts)[0].tolist():
                    c = int(counts[i])
                    u[off:off + c] = self._router_rngs[i].random(c)
                    off += c
                hits = u < q
                if hits.any():
                    et = nt[hits]
                    ep = a_pid[normal][hits]
                    fr.state[et, ep] = _EXCITED
                    ec = np.bincount(et, minlength=trials)
                    self.excitations += ec
                    self.num_excited += ec

    # ------------------------------------------------------------- post-step

    def _post_step(self, lt, t_lt) -> None:
        """Frontier post-step: round-end calms, phase-end releases."""
        fr = self.fr
        trials = self.trials
        round_end = ((t_lt + 1) % self._w) == 0
        phase_end = ((t_lt + 1) % self._spp) == 0
        need = (
            (round_end | phase_end)
            & (
                (self.num_excited[lt] > 0)
                | (phase_end & (self.num_waiting[lt] > 0))
            )
            & (self.act_cnt[lt] > 0)
        )
        if not need.any():
            return
        rows = lt[need]
        f_tid, f_pid = self._flat_active(rows)
        st = fr.state[f_tid, f_pid]
        exc = st == _EXCITED
        if exc.any():
            et, ep = f_tid[exc], f_pid[exc]
            fr.state[et, ep] = _NORMAL
            c = np.bincount(et, minlength=trials)
            self.round_calms += c
            self.num_excited -= c
        pe_flag = np.zeros(trials, dtype=bool)
        pe_flag[lt[need & phase_end]] = True
        wsel = (st == _WAIT) & pe_flag[f_tid]
        if wsel.any():
            wt, wp = f_tid[wsel], f_pid[wsel]
            fr.state[wt, wp] = _NORMAL
            fr.wait_node[wt, wp] = -1
            fr.wait_edge[wt, wp] = -1
            c = np.bincount(wt, minlength=trials)
            self.phase_releases += c
            self.num_waiting -= c

    # ------------------------------------------------- conflict-free apply

    def _apply_clean(
        self, tid, pid, nodes, edges, backward, wait_at, is_elig
    ) -> None:
        """Vectorized winner application for conflict-free trials.

        Every desire is granted; flat order per trial is the reference's
        granted order, so plain scatters reproduce it exactly.
        """
        if not tid.size:
            return
        soa = self.soa
        fr = self.fr
        trials = self.trials
        t_of = self.t

        if is_elig.any():
            inj_t = tid[is_elig]
            inj_p = pid[is_elig]
            soa.status[inj_t, inj_p] = _ACTIVE
            soa.injected_at[inj_t, inj_p] = t_of[inj_t]
            self.elig_mask[inj_t, inj_p] = False
            counts = np.bincount(inj_t, minlength=trials)
            self.elig_cnt -= counts
            seg_start = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )[inj_t]
            rank = np.arange(inj_t.size, dtype=np.int64) - seg_start
            self.act_mat[inj_t, self.act_cnt[inj_t] + rank] = inj_p
            self.act_cnt += counts
            self.num_active += counts
            if fr is not None:
                act_sel = ~is_elig
                occ_keys = tid[act_sel] * self._num_nodes + nodes[act_sel]
                inj_keys = inj_t * self._num_nodes + nodes[is_elig]
                occupied = np.isin(inj_keys, occ_keys)
                uk, inv, cnts = np.unique(
                    inj_keys, return_inverse=True, return_counts=True
                )
                crowded = occupied | (cnts[inv] != 1)
                if crowded.any():
                    self.isolation_violations += np.bincount(
                        inj_t[crowded], minlength=trials
                    )

        if wait_at is not None and wait_at.any():
            rt, rp = tid[wait_at], pid[wait_at]
            if int(soa.cursor[rt, rp].min()) == 0:
                soa.grow_front()
            soa.cursor[rt, rp] -= 1
            soa.path_buf[rt, rp, soa.cursor[rt, rp]] = edges[wait_at]
            nv = ~wait_at
            soa.cursor[tid[nv], pid[nv]] += 1
        else:
            soa.cursor[tid, pid] += 1
        new_nodes = np.where(
            backward, self._edge_src[edges], self._edge_dst[edges]
        )
        if backward.any():
            soa.backward_moves[tid[backward], pid[backward]] += 1
        soa.last_direction[tid, pid] = backward
        soa.node[tid, pid] = new_nodes
        soa.last_edge[tid, pid] = edges
        soa.moves[tid, pid] += 1
        fwd = ~backward
        # REVERSE only happens backward, so forward winners are the safe
        # backward set E' of the next step.
        self.safe_mask[tid[fwd], pid[fwd]] = True

        delivered = (soa.cursor[tid, pid] == soa.width) & (
            new_nodes == soa.destination[pid]
        )
        deliv_any = bool(delivered.any())
        if deliv_any:
            dt_, dp_ = tid[delivered], pid[delivered]
            soa.status[dt_, dp_] = _ABSORBED
            soa.absorbed_at[dt_, dp_] = t_of[dt_] + 1
            dc = np.bincount(dt_, minlength=trials)
            self.num_active -= dc
            self.num_absorbed += dc
            if fr is not None:
                exc = fr.state[dt_, dp_] == _EXCITED
                if exc.any():
                    self.num_excited -= np.bincount(
                        dt_[exc], minlength=trials
                    )
            for i in np.unique(dt_).tolist():
                row = self.act_mat[i, : self.act_cnt[i]]
                kept = row[soa.status[i, row] == _ACTIVE]
                self.act_mat[i, : kept.size] = kept
                self.act_cnt[i] = kept.size

        if fr is not None:
            # on_moved: forward path arrivals on the target level wait.
            cand = (fr.state[tid, pid] != _WAIT) & fwd
            if deliv_any:
                cand &= ~delivered
            if cand.any():
                ct, cp = tid[cand], pid[cand]
                nn = new_nodes[cand]
                lvl_ok = (
                    self._node_levels[nn]
                    == self._target_by_set[ct, fr.set_index[ct, cp]]
                )
                if lvl_ok.any():
                    et, ep = ct[lvl_ok], cp[lvl_ok]
                    fr.state[et, ep] = _WAIT
                    fr.wait_node[et, ep] = nn[lvl_ok]
                    fr.wait_edge[et, ep] = edges[cand][lvl_ok]
                    wc = np.bincount(et, minlength=trials)
                    self.wait_entries += wc
                    self.num_waiting += wc

    # --------------------------------------------------- contended fallback

    def _step_contended_row(
        self, i, pid, nodes, edges, backward, wait_at, slots, is_elig,
        safe_pairs,
    ) -> None:
        """Reference arbitration replay for one conflicted trial's step.

        The reference engine's arbitration order, replayed on this
        trial's flat participant segment, drawing every tie-break
        and shuffle from this trial's own engine generator.
        """
        fr = self.fr
        rng = self.rngs[i]
        n_parts = pid.size
        n_act = n_parts - int(is_elig.sum())
        pids_list = pid.tolist()
        nodes_list = nodes.tolist()
        slots_list = slots.tolist()
        prio_list = fr.state[i, pid].tolist() if fr is not None else None
        slot_set = set(slots_list)

        contenders: Dict[int, object] = {}
        for pos, slot in enumerate(slots_list):
            prev = contenders.get(slot)
            if prev is None:
                contenders[slot] = pos
            elif type(prev) is list:
                prev.append(pos)
            else:
                contenders[slot] = [prev, pos]
        winner_pos: List[int] = []
        losers_by_node: Dict[int, List[int]] = {}
        pending_grants: Dict[int, List[Tuple[int, int]]] = {}
        for slot, entry in contenders.items():
            if type(entry) is int:
                win = entry
            else:
                first = entry[0]
                best = [first]
                if prio_list is not None:
                    bk = (1 if first < n_act else 0, prio_list[first])
                    for pos in entry[1:]:
                        k = (1 if pos < n_act else 0, prio_list[pos])
                        if k > bk:
                            best = [pos]
                            bk = k
                        elif k == bk:
                            best.append(pos)
                else:
                    bk = 1 if first < n_act else 0
                    for pos in entry[1:]:
                        k = 1 if pos < n_act else 0
                        if k > bk:
                            best = [pos]
                            bk = k
                        elif k == bk:
                            best.append(pos)
                if len(best) > 1:
                    win = best[int(rng.integers(0, len(best)))]
                else:
                    win = best[0]
                for pos in entry:
                    if pos != win and pos < n_act:
                        losers_by_node.setdefault(
                            nodes_list[pos], []
                        ).append(pids_list[pos])
            winner_pos.append(win)
            if win >= n_act:
                pending_grants.setdefault(nodes_list[win], []).append(
                    (pids_list[win], slot)
                )

        deflected = None
        if losers_by_node:
            deflected, revoked = self._match_deflections_row(
                i, losers_by_node, slot_set, pending_grants, safe_pairs
            )
            if revoked:
                winner_pos = [
                    pos for pos in winner_pos
                    if pids_list[pos] not in revoked
                ]
        w_pos = np.asarray(winner_pos, dtype=np.int64)
        w_pids = pid[w_pos]
        w_edges = edges[w_pos]
        w_back = backward[w_pos]
        w_rev = wait_at[w_pos] if wait_at is not None else None
        inj_pos = [pos for pos in winner_pos if pos >= n_act]
        violations = 0
        if inj_pos:
            inj_ids = np.asarray(
                [pids_list[pos] for pos in inj_pos], dtype=np.int64
            )
            if fr is not None:
                isolated = _isolation_flags(
                    nodes_list[:n_act],
                    [nodes_list[pos] for pos in inj_pos],
                )
                violations = isolated.count(False)
        else:
            inj_ids = None
        self._apply_row(
            i, w_pids, w_edges, w_back, w_rev, inj_ids, violations, deflected
        )

    def _match_deflections_row(
        self, i, losers_by_node, used_slots, pending_grants, safe_pairs
    ):
        """Per-trial loser matching (safe in-edges first, Lemma 2.1)."""
        geo = self._geo
        in_edges = geo.in_edges
        in_slot_ids = geo.in_slot_ids
        out_edges = geo.out_edges
        out_slot_ids = geo.out_slot_ids
        safe_by_node: Dict[int, Set[int]] = {}
        for nd, e in zip(*safe_pairs):
            safe_by_node.setdefault(nd, set()).add(e)
        rng = self.rngs[i]
        t = int(self.t[i])
        deflected: List[Tuple[int, int, bool]] = []
        revoked: Optional[Set[int]] = None
        for node, losers in losers_by_node.items():
            if len(losers) > 1:
                rng.shuffle(losers)
            safe_here = safe_by_node.get(node, ())
            needed = len(losers)
            candidates: List[Tuple[int, int, bool]] = []
            node_in = in_edges[node]
            node_in_slots = in_slot_ids[node]
            if safe_here:
                for e, s in zip(node_in, node_in_slots):
                    if e in safe_here and s not in used_slots:
                        candidates.append((e, s, True))
                        if len(candidates) == needed:
                            break
                if len(candidates) < needed:
                    for e, s in zip(node_in, node_in_slots):
                        if e not in safe_here and s not in used_slots:
                            candidates.append((e, s, False))
                            if len(candidates) == needed:
                                break
            else:
                for e, s in zip(node_in, node_in_slots):
                    if s not in used_slots:
                        candidates.append((e, s, False))
                        if len(candidates) == needed:
                            break
            if len(candidates) < needed:
                for e, s in zip(out_edges[node], out_slot_ids[node]):
                    if s not in used_slots:
                        candidates.append((e, s, False))
                        if len(candidates) == needed:
                            break
            node_pending = pending_grants.get(node)
            while len(candidates) < needed and node_pending:
                revoke_pid, slot = node_pending.pop()
                if revoked is None:
                    revoked = set()
                revoked.add(revoke_pid)
                used_slots.discard(slot)
                candidates.append((slot >> 1, slot, False))
            if len(candidates) < needed:
                raise CapacityError(
                    f"step {t}: node {node} has {needed} deflected "
                    f"packets but only {len(candidates)} free slots"
                )
            for pid, (edge, slot, safe) in zip(losers, candidates):
                used_slots.add(slot)
                deflected.append((pid, edge, safe))
        return deflected, revoked

    def _apply_row(
        self, i, w_pids, w_edges, w_back, w_rev, inj_ids, violations,
        deflected,
    ) -> None:
        """Apply one trial's winning and deflected moves (untraced)."""
        soa = self.soa
        fr = self.fr
        ti = int(self.t[i])

        if inj_ids is not None:
            soa.status[i, inj_ids] = _ACTIVE
            soa.injected_at[i, inj_ids] = ti
            self.elig_mask[i, inj_ids] = False
            self.elig_cnt[i] -= inj_ids.size
            c0 = int(self.act_cnt[i])
            self.act_mat[i, c0:c0 + inj_ids.size] = inj_ids
            self.act_cnt[i] = c0 + inj_ids.size
            self.num_active[i] += inj_ids.size
            self.isolation_violations[i] += violations

        if w_rev is not None and w_rev.any():
            rev_p = w_pids[w_rev]
            if int(soa.cursor[i, rev_p].min()) == 0:
                soa.grow_front()
            soa.cursor[i, rev_p] -= 1
            soa.path_buf[i, rev_p, soa.cursor[i, rev_p]] = w_edges[w_rev]
            soa.cursor[i, w_pids[~w_rev]] += 1
        else:
            soa.cursor[i, w_pids] += 1
        new_nodes = np.where(
            w_back, self._edge_src[w_edges], self._edge_dst[w_edges]
        )
        if w_back.any():
            soa.backward_moves[i, w_pids[w_back]] += 1
        soa.last_direction[i, w_pids] = w_back
        soa.node[i, w_pids] = new_nodes
        soa.last_edge[i, w_pids] = w_edges
        soa.moves[i, w_pids] += 1
        fwd = ~w_back
        self.safe_mask[i, w_pids[fwd]] = True

        delivered = (soa.cursor[i, w_pids] == soa.width) & (
            new_nodes == soa.destination[w_pids]
        )
        deliv_any = bool(delivered.any())
        if deliv_any:
            absorbed = w_pids[delivered]
            soa.status[i, absorbed] = _ABSORBED
            soa.absorbed_at[i, absorbed] = ti + 1
            self.num_active[i] -= absorbed.size
            self.num_absorbed[i] += absorbed.size
            if fr is not None:
                self.num_excited[i] -= int(
                    (fr.state[i, absorbed] == _EXCITED).sum()
                )
            row = self.act_mat[i, : self.act_cnt[i]]
            kept = row[soa.status[i, row] == _ACTIVE]
            self.act_mat[i, : kept.size] = kept
            self.act_cnt[i] = kept.size

        if fr is not None:
            cand = (fr.state[i, w_pids] != _WAIT) & fwd
            if deliv_any:
                cand &= ~delivered
            if cand.any():
                pids = w_pids[cand]
                nn = new_nodes[cand]
                we = w_edges[cand]
                lvl_ok = (
                    self._node_levels[nn]
                    == self._target_by_set[i, fr.set_index[i, pids]]
                )
                if lvl_ok.any():
                    entering = pids[lvl_ok]
                    fr.state[i, entering] = _WAIT
                    fr.wait_node[i, entering] = nn[lvl_ok]
                    fr.wait_edge[i, entering] = we[lvl_ok]
                    self.wait_entries[i] += entering.size
                    self.num_waiting[i] += entering.size

        if deflected:
            pids = np.asarray([d[0] for d in deflected], dtype=np.int64)
            eidx = np.asarray([d[1] for d in deflected], dtype=np.int64)
            unsafe = np.asarray(
                [not d[2] for d in deflected], dtype=bool
            )
            c = soa.cursor[i, pids]
            if int(c.min()) == 0:
                soa.grow_front()
                c = soa.cursor[i, pids]
            soa.cursor[i, pids] = c - 1
            soa.path_buf[i, pids, c - 1] = eidx
            src = self._edge_src[eidx]
            back = soa.node[i, pids] != src
            soa.node[i, pids] = np.where(back, src, self._edge_dst[eidx])
            soa.last_direction[i, pids] = back
            soa.backward_moves[i, pids] += back
            soa.last_edge[i, pids] = eidx
            soa.moves[i, pids] += 1
            soa.deflections[i, pids] += 1
            n_unsafe = int(unsafe.sum())
            if n_unsafe:
                soa.unsafe_deflections[i, pids] += unsafe
                self.unsafe_deflections[i] += n_unsafe
            if fr is not None:
                st = fr.state[i, pids]
                waiting = pids[st == _WAIT]
                if waiting.size:
                    fr.state[i, waiting] = _NORMAL
                    fr.wait_node[i, waiting] = -1
                    fr.wait_edge[i, waiting] = -1
                    self.wait_evictions[i] += waiting.size
                    self.num_waiting[i] -= waiting.size
                excited = pids[st == _EXCITED]
                if excited.size:
                    fr.state[i, excited] = _NORMAL
                    self.num_excited[i] -= excited.size

    # ---------------------------------------------------------- fast-forward

    def _quiescent_rows(self, lt):
        """Trials of ``lt`` that are quiescent, with per-trial horizons."""
        fr = self.fr
        soa = self.soa
        spp = self._spp
        cand = lt[self.elig_cnt[lt] == 0]
        if not cand.size:
            return None, None
        unmarked = (soa.status[cand] == _PENDING) & ~self.elig_mask[cand]
        ip = np.where(unmarked, fr.injection_phase[cand], _NO_PHASE)
        minph = ip.min(axis=1)
        has_pending = minph < _NO_PHASE
        cur_phase = self.t[cand] // spp
        ok = ~has_pending | (minph > cur_phase)
        if not ok.all():
            cand = cand[ok]
            minph = minph[ok]
            has_pending = has_pending[ok]
            cur_phase = cur_phase[ok]
        if not cand.size:
            return None, None
        empty = self.act_cnt[cand] == 0
        horizon = np.where(empty, minph * spp, (cur_phase + 1) * spp)
        keep = np.ones(cand.size, dtype=bool)
        keep[empty & ~has_pending] = False
        nonempty = ~empty
        if nonempty.any():
            all_wait = (
                self.num_waiting[cand] == self.act_cnt[cand]
            ) & nonempty
            keep &= all_wait | empty
            chk = cand[all_wait]
            if chk.size:
                f_tid, f_pid = self._flat_active(chk)
                osc = fr.wait_edge[f_tid, f_pid] * 2 + (
                    soa.node[f_tid, f_pid] == fr.wait_node[f_tid, f_pid]
                )
                span = 2 * self._num_edges + 2
                sk = np.sort(f_tid * span + osc)
                d = sk[1:] == sk[:-1]
                if d.any():  # pragma: no cover - theory says impossible
                    badrows = np.unique(sk[:-1][d] // span)
                    keep &= ~np.isin(cand, badrows)
        rows = cand[keep]
        if not rows.size:
            return None, None
        return rows, horizon[keep]

    def _advance_span(self, rows, k_rows) -> None:
        """Analytically apply ``k_rows`` quiescent oscillation steps."""
        fr = self.fr
        soa = self.soa
        self.safe_mask[rows] = False
        if not self.act_cnt[rows].any():
            return
        k_arr = np.zeros(self.trials, dtype=np.int64)
        k_arr[rows] = k_rows
        f_tid, f_pid = self._flat_active(rows)
        at_wait = soa.node[f_tid, f_pid] == fr.wait_node[f_tid, f_pid]
        kf = k_arr[f_tid]
        soa.moves[f_tid, f_pid] += kf
        soa.backward_moves[f_tid, f_pid] += np.where(
            at_wait, (kf + 1) // 2, kf // 2
        )
        odd = (kf & 1) == 1
        if odd.any():
            leaving = odd & at_wait
            if leaving.any():
                ltid, lpid = f_tid[leaving], f_pid[leaving]
                if int(soa.cursor[ltid, lpid].min()) == 0:
                    soa.grow_front()
                soa.cursor[ltid, lpid] -= 1
                we = fr.wait_edge[ltid, lpid]
                soa.path_buf[ltid, lpid, soa.cursor[ltid, lpid]] = we
                soa.node[ltid, lpid] = self._edge_src[we]
                soa.last_direction[ltid, lpid] = 1
            returning = odd & ~at_wait
            if returning.any():
                rtid, rpid = f_tid[returning], f_pid[returning]
                soa.cursor[rtid, rpid] += 1
                we = fr.wait_edge[rtid, rpid]
                soa.node[rtid, rpid] = self._edge_dst[we]
                soa.last_direction[rtid, rpid] = 0
            ot, op = f_tid[odd], f_pid[odd]
            soa.last_edge[ot, op] = fr.wait_edge[ot, op]
        ended = soa.node[f_tid, f_pid] == fr.wait_node[f_tid, f_pid]
        self.safe_mask[f_tid[ended], f_pid[ended]] = True

    def _fast_forward(self, lt) -> None:
        """Reference-equivalent quiescence skip across trials."""
        rows, horizon = self._quiescent_rows(lt)
        if rows is None:
            return
        target = horizon - 1  # simulate the boundary step normally
        k = target - self.t[rows]
        adv = k > 0
        if not adv.any():
            return
        rows, target, k = rows[adv], target[adv], k[adv]
        self._advance_span(rows, k)
        self.t[rows] = target
        self.steps_skipped[rows] += k

    def _bulk_advance(self, lt, max_steps: int) -> None:
        """Quiescent spans as *executed* steps (fast-forward disabled)."""
        rows, horizon = self._quiescent_rows(lt)
        if rows is None:
            return
        target = np.minimum(horizon - 1, max_steps)
        k = target - self.t[rows]
        adv = k > 0
        if not adv.any():
            return
        rows, target, k = rows[adv], target[adv], k[adv]
        self._advance_span(rows, k)
        phase = (target - 1) // self._spp
        self.current_phase[rows] = np.maximum(self.current_phase[rows], phase)
        self.t[rows] = target
        self.steps_executed[rows] += k

    # ---------------------------------------------------------------- result

    def result(self, i: int) -> RunResult:
        """Trial ``i``'s metrics, field-identical to its per-trial run."""
        soa = self.soa
        n = self.num_packets
        aa = soa.absorbed_at[i]
        if int(self.num_absorbed[i]) == n:
            makespan = int(aa.max()) if n else int(self.t[i])
        else:
            makespan = int(self.t[i])
        delivery_times = [a if a >= 0 else None for a in aa.tolist()]
        extra: Dict[str, float] = {}
        if self.fr is not None:
            extra = {
                "num_sets": float(self._num_sets),
                "m": float(self._m),
                "w": float(self._w),
                "q": float(self._q),
                "excitations": float(self.excitations[i]),
                "wait_entries": float(self.wait_entries[i]),
                "wait_evictions": float(self.wait_evictions[i]),
                "phase_releases": float(self.phase_releases[i]),
                "isolation_violations": float(self.isolation_violations[i]),
                "phases_elapsed": float(self.current_phase[i] + 1),
            }
        return RunResult(
            router_name=self.router_name,
            network_name=self.net.name,
            num_packets=n,
            congestion=self.problem.congestion,
            dilation=self.problem.dilation,
            depth=self.net.depth,
            delivered=int(self.num_absorbed[i]),
            makespan=makespan,
            steps_executed=int(self.steps_executed[i]),
            steps_skipped=int(self.steps_skipped[i]),
            delivery_times=delivery_times,
            deflections_per_packet=soa.deflections[i].tolist(),
            unsafe_deflections=int(self.unsafe_deflections[i]),
            total_moves=int(soa.moves[i].sum()),
            total_backward_moves=int(soa.backward_moves[i].sum()),
            extra=extra,
        )


__all__ = ["LockstepEngine"]
