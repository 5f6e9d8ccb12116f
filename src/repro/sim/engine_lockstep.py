"""Lockstep multi-trial batch kernel (stacked struct-of-arrays).

:class:`LockstepEngine` advances a whole Monte Carlo batch of trials in
lockstep: every per-packet field of the reference
engine becomes an array with a leading ``trial`` axis
(:class:`~repro.sim.soa.StackedPacketArrays`), so one "tick" of the batch
advances every live trial by one executed step with a handful of numpy
operations amortized across the batch.  Each trial routes its own
:class:`~repro.paths.RoutingProblem` with the same number of packets:
fixed-problem sweeps and tuning rungs give every trial the same one (the
trials differ only in their RNG streams), instance sweeps a different one
per trial.  The frame schedule (``num_sets``, ``m``, ``w``, ``q``) and the
step budget depend on the problem's congestion, so they are per-trial
vectors too.

Trials may route different networks of one depth (an instance sweep over
``random_leveled`` builds one per seed).  The disjoint union of leveled
networks of depth ``L`` is a leveled network of depth ``L``, so the batch
concatenates the networks' tables, shifts each trial's nodes and path
edges by its network's offsets into them, and runs the same step loop;
ids that leave the kernel (audit details, errors) are shifted back to the
trial's own.  A batch whose trials share one network is the union of one
part: its tables, unchanged, at offset zero.

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
  engine generator, drawn only when *that trial's* step is contended.
  All conflicted trials of a tick are arbitrated together with array
  operations (:mod:`repro.sim.lockstep_arbitration`): one
  ``(trial, slot)`` sort forms the contender groups,
  ranks them (active before pending, then state priority) and finds the
  ties and each node's losers; loser slots are matched per node in the
  reference's candidate order.  Python loops only over tied slots and
  multi-loser nodes, to make each trial's ``rng.integers`` and
  ``rng.shuffle`` calls in the reference's order.

Per-trial divergence is handled with masks: each trial has its own clock
``t[i]`` (quiescence fast-forward skips different spans per trial),
finished trials drop out of the live set, and a tick with no duplicated
``(trial, slot)`` skips arbitration altogether.  One apply pass moves the
winners of every trial, clean or conflicted, in the reference's granted
order; a second moves every deflected loser.

Telemetry counters
------------------
With ``telemetry=True`` each trial's result carries the
:meth:`Counters.to_dict() <repro.telemetry.Counters.to_dict>` snapshot the
reference run builds from its event stream, byte for byte, computed from
the kernel's own arrays (no events are constructed).  Most counts are
points the kernel already visits.  ``level_peaks`` is a running maximum
taken event by event, so each tick lists its occupancy changes in the
reference's event order — winners in granted order (inject, move,
absorb), then deflections node by node in order of first loser — and a
segmented cumulative sum over ``(trial, level)`` folds them, many ticks at
a time (:mod:`repro.sim.lockstep_counters`).  A packet's level is the
level of its latest event, never re-derived from its node: an odd-length
fast-forward span moves oscillating packets without emitting moves.  With
fast-forward disabled, counters step every tick (the reference emits
per-step events there) instead of bulk-advancing quiescent spans.

Invariant audits
----------------
With ``audit=True`` (frontier batches only) each trial also gets the
:class:`~repro.core.AuditReport` its reference run's
:class:`~repro.core.InvariantAuditor` builds, equal field for field
(:mod:`repro.sim.lockstep_audit`).  ``I_a`` and ``I_b``'s deflection
checks read the isolation flags and unsafe deflections at the sites that
count them; the post-step scans (path chains, frame membership, set
meetings, per-set congestion, phase-end inner levels) run after each
tick, only for the trials that executed it.  Fast-forwarded steps stay
unaudited, as on the reference; with fast-forward disabled, audited
batches step quiescent spans instead of bulk-advancing them.

Not supported (callers peel off to the per-trial engines): per-event
observers (traces, ambient telemetry sessions), arbitrary post-step
hooks, arrival schedules, and routers other than the frontier-frame
algorithm and the naive path-following baseline.
``repro.experiments.batch.TrialExecutor`` applies exactly that peel-off
policy when grouping chunks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ReproError, SimulationError
from ..rng import RngLike, make_rng
from .lockstep_arbitration import ArbitrationMixin, _member
from .metrics import RunResult
from .soa import GeometryArrays, StackedFrontierArrays, StackedPacketArrays

_PENDING = 0
_ACTIVE = 1
_ABSORBED = 2
_WAIT = 1
_NORMAL = 2
_EXCITED = 3
#: sentinel larger than any injection phase (masked minima)
_NO_PHASE = 2**62
#: per-packet tables the step loop reads through flat views
_SOA_FLAT = (
    "node", "cursor", "status", "injected_at", "absorbed_at", "last_edge",
    "last_direction", "moves", "deflections", "unsafe_deflections",
    "backward_moves", "destination",
)
_FRONTIER_FLAT = ("state", "wait_node", "wait_edge", "set_index")


#: truthy iff an array has a nonzero (True) entry: ``np.count_nonzero``
#: answers in a third of the time ``ndarray.any`` takes on the step loop's
#: small arrays
_some = np.count_nonzero


def _flat_view(table):
    """A 1-D view of ``table`` (never a copy: writes must reach it)."""
    view = table.view()
    view.shape = (-1,)
    return view


class LockstepEngine(ArbitrationMixin):
    """Stacked-array twin of the reference engine for whole trial batches.

    Construct through :meth:`frontier` or :meth:`naive`, with one problem
    per trial (one packet count and network depth for the batch, else a
    :class:`~repro.errors.ReproError`).  ``run`` returns one
    :class:`RunResult` per trial, in input order, each byte-identical to
    the corresponding per-trial engine run.
    """

    def __init__(
        self,
        problems: Sequence,
        *,
        mode: str,
        rngs: Sequence,
        router_rngs: Optional[Sequence] = None,
        params: Optional[Sequence] = None,
        set_rows=None,
        enable_fast_forward: bool = True,
        telemetry: bool = False,
        audit: bool = False,
        audit_congestion_bound: Optional[float] = None,
    ) -> None:
        self.problems = list(problems)
        self.mode = mode
        self.router_name = (
            "FrontierFrameRouter" if mode == "frontier" else "NaivePathRouter"
        )
        self.rngs = [make_rng(r) for r in rngs]
        trials = len(self.rngs)
        self.trials = trials
        if len(self.problems) != trials:
            raise ReproError(
                f"lockstep needs one problem per trial: got "
                f"{len(self.problems)} problems for {trials} trials"
            )
        self._enable_fast_forward = enable_fast_forward

        self.net = self.problems[0].net
        nets = self._check_problems()
        # Trials route over the disjoint union of their networks.
        self._geos = [net.geometry() for net in nets.values()]
        ga, node_off, edge_off = GeometryArrays.union(
            [geo.arrays() for geo in self._geos]
        )
        self._net_edge_off = edge_off.tolist()
        slot = {key: k for k, key in enumerate(nets)}
        which = np.array(
            [slot[id(p.net)] for p in self.problems], dtype=np.intp
        )
        #: each trial's node and edge offset into the batch's tables
        self._node_off = node_off[which]
        self._edge_off = edge_off[which]
        self.soa = StackedPacketArrays.from_problems(
            self.problems, self._node_off, self._edge_off
        )
        self._edge_src = ga.edge_src
        self._edge_dst = ga.edge_dst
        self._node_levels = ga.node_levels
        self._num_nodes = ga.num_nodes
        self._num_edges = ga.num_edges
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
        #: per-node deflection candidates, built on the first contended step
        self._inc = None
        #: packet ids as a row, for the active-slot masks
        self._cols = np.arange(n, dtype=np.int64)[None, :]

        # The frame schedule, one entry per trial: trials routing different
        # problems may differ in congestion and so in every parameter.
        if mode == "frontier":
            if router_rngs is None or len(router_rngs) != trials:
                raise ReproError(
                    "frontier lockstep needs one router rng per trial"
                )
            if params is None or len(params) != trials:
                raise ReproError(
                    "frontier lockstep needs one AlgorithmParams per trial"
                )
            self._router_rngs = list(router_rngs)
            self._num_sets = np.array(
                [p.num_sets for p in params], dtype=np.int64
            )
            self._m = np.array([p.m for p in params], dtype=np.int64)
            self._w = np.array([p.w for p in params], dtype=np.int64)
            self._q = np.array([p.q for p in params], dtype=np.float64)
            self._spp = self._m * self._w
            #: trials that draw excitation coins (q = 0 draws none at all)
            self._coins = self._q > 0.0
            set_idx = np.asarray(set_rows, dtype=np.int64)
            if set_idx.shape != (trials, n):
                raise ReproError(
                    f"set_rows must be shaped (trials, packets) = "
                    f"({trials}, {n}); got {set_idx.shape}"
                )
            src_levels = self._node_levels[self.soa.source]
            m_col = self._m[:, None]
            inj_phase = set_idx * m_col + (m_col - 1) + src_levels
            self.fr = StackedFrontierArrays(set_idx, inj_phase)
            # Columns past a trial's own num_sets are never read: its
            # packets' set indices stay below it.
            most = int(self._num_sets.max())
            self._set_offsets = np.arange(most, dtype=np.int64) * m_col
            self._target_by_set = np.zeros((trials, most), dtype=np.int64)
            self._most = most
            self._targets = _flat_view(self._target_by_set)
        else:
            self.fr = None
            self._router_rngs = None
            # NaivePathRouter.attach marks everything eligible immediately.
            self.elig_mask[:] = True
            self.elig_cnt[:] = n
        # Flat views of the (trial, packet) tables: the step loop indexes
        # them with one ``trial * packets + packet`` array, which numpy
        # gathers and scatters several times faster than an index pair.
        self._flat = {
            name: _flat_view(table)
            for name, table in (
                *((name, getattr(self.soa, name)) for name in _SOA_FLAT),
                ("elig", self.elig_mask),
                ("safe", self.safe_mask),
                ("act", self.act_mat),
                *(
                    (name, getattr(self.fr, name))
                    for name in _FRONTIER_FLAT
                    if self.fr is not None
                ),
            )
        }
        #: trials :meth:`run` stopped before they finished (see ``tail``)
        self.cut = np.zeros(trials, dtype=bool)
        #: per-trial event counters (None: untelemetered run)
        self.counters = None
        if telemetry:
            from .lockstep_counters import TrialCounters

            self.counters = TrialCounters(self)
        #: per-trial invariant audits (None: unaudited run)
        self.auditor = None
        if audit:
            if self.fr is None:
                raise ReproError("only frontier lockstep batches audit")
            from .lockstep_audit import TrialAuditor

            self.auditor = TrialAuditor(self, audit_congestion_bound)

    def _check_problems(self) -> dict:
        """Every trial's problem: no arrivals, and the batch's depth.

        Returns the batch's distinct networks by ``id``, in order of first
        use.
        """
        nets: dict = {}
        depth = self.net.depth
        for problem in self.problems:
            if getattr(problem, "arrival_schedule", None) is not None:
                raise ReproError(
                    "the lockstep kernel does not support arrival schedules; "
                    "run those trials on the per-trial engines instead"
                )
            if problem.net.depth != depth:
                raise ReproError(
                    "lockstep trials must route over networks of equal "
                    f"depth; {problem.net.name!r} has depth "
                    f"{problem.net.depth}, {self.net.name!r} has {depth}"
                )
            nets.setdefault(id(problem.net), problem.net)
        return nets

    # ------------------------------------------------------------- factories

    @classmethod
    def frontier(
        cls,
        problems: Sequence,
        params: Sequence,
        *,
        router_seeds: Sequence[RngLike],
        engine_seeds: Sequence[RngLike],
        set_rows=None,
        enable_fast_forward: bool = True,
        telemetry: bool = False,
        audit: bool = False,
        audit_congestion_bound: Optional[float] = None,
    ) -> "LockstepEngine":
        """Batch kernel for the paper's frontier-frame algorithm.

        Trial ``i`` mirrors the reference ``Engine(problems[i],
        FrontierFrameRouter(params[i], seed=router_seeds[i]),
        seed=engine_seeds[i])`` exactly: when ``set_rows`` is omitted each
        trial's frontier-set assignment is drawn from its own router
        generator (leaving the excitation-coin stream aligned with the
        reference); pass precomputed rows (e.g. conditioned assignments)
        to skip the draw, exactly as passing ``set_of`` does on the
        reference router.  ``telemetry`` attaches each trial's event
        counters to its result; ``audit`` keeps each trial's invariant
        audit, read with ``engine.auditor.result(i)`` after :meth:`run`,
        under the optional ``audit_congestion_bound`` on ``I_e`` (see the
        module docstring).
        """
        from ..core.frontier import assign_frontier_sets
        from ..errors import ParameterError

        problems, params = list(problems), list(params)
        for problem, prm in zip(problems, params):
            if prm.depth != problem.net.depth:
                raise ParameterError(
                    f"params built for depth {prm.depth} but network has "
                    f"depth {problem.net.depth}"
                )
            if prm.num_packets != problem.num_packets:
                raise ParameterError(
                    f"params built for {prm.num_packets} packets but "
                    f"problem has {problem.num_packets}"
                )
        router_rngs = [make_rng(s) for s in router_seeds]
        if len(router_rngs) != len(list(engine_seeds)):
            raise ReproError("router_seeds and engine_seeds lengths differ")
        if set_rows is None:
            set_rows = [
                assign_frontier_sets(problem, prm.num_sets, rng)
                for problem, prm, rng in zip(problems, params, router_rngs)
            ]
        return cls(
            problems,
            mode="frontier",
            rngs=engine_seeds,
            router_rngs=router_rngs,
            params=params,
            set_rows=set_rows,
            enable_fast_forward=enable_fast_forward,
            telemetry=telemetry,
            audit=audit,
            audit_congestion_bound=audit_congestion_bound,
        )

    @classmethod
    def naive(
        cls,
        problems: Sequence,
        *,
        engine_seeds: Sequence[RngLike],
        telemetry: bool = False,
    ) -> "LockstepEngine":
        """Batch kernel for the naive path-following baseline;
        trial ``i`` routes ``problems[i]``."""
        return cls(
            problems,
            mode="naive",
            rngs=engine_seeds,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------- run

    @property
    def done(self) -> bool:
        """All packets of every trial absorbed."""
        return bool((self.num_absorbed == self.num_packets).all())

    def run(self, max_steps, tail: int = 0) -> List[RunResult]:
        """Run every trial to delivery or its step budget; per-trial results.

        ``max_steps`` is one budget for every trial or one per trial.  With
        ``tail``, the run stops as soon as no more than ``tail`` trials are
        still running: a tick costs about the same at any width, so a few
        stragglers of a heterogeneous batch cost more here than rerun on
        the per-trial engine.  :attr:`cut` then marks those trials; their
        results describe where the batch stopped, not how they end.
        """
        frontier = self.fr is not None
        ff = frontier and self._enable_fast_forward
        # Counters and audits observe every executed step: no bulk spans.
        bulk = (
            frontier and not ff
            and self.counters is None and self.auditor is None
        )
        budget = np.broadcast_to(
            np.asarray(max_steps, dtype=np.int64), (self.trials,)
        )
        live = (self.num_absorbed < self.num_packets) & (self.t < budget)
        while _some(live):
            lt = np.nonzero(live)[0]
            if lt.size <= tail:
                self.cut[lt] = True
                break
            if ff:
                self._fast_forward(lt)
            elif bulk:
                self._bulk_advance(lt, budget)
                lt = lt[self.t[lt] < budget[lt]]
                if not lt.size:
                    break
            self._step(lt)
            live = (self.num_absorbed < self.num_packets) & (self.t < budget)
        results = [self.result(i) for i in range(self.trials)]
        if self.counters is not None:
            for result, counters in zip(
                results, self.counters.to_dicts(self)
            ):
                result.telemetry = counters
        return results

    # ------------------------------------------------------------------ step

    def _flat_active(self, rows):
        """Flat ``(tid, pid)`` arrays over ``rows``' active packets.

        Row-major order: trials ascending, and within a trial the packed
        ``act_mat`` row order — the reference's injection order.
        """
        acnt = self.act_cnt[rows]
        amask = self._cols < acnt[:, None]
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
        tc = self.counters
        if tc is not None:
            # A trial emits events this tick iff it starts a round (or a
            # phase), or has a participant: active packets always move, and
            # without them some eligible packet wins its slot and injects.
            ev = (self.act_cnt[lt] > 0) | (self.elig_cnt[lt] > 0)
            if fr is not None:
                ev |= (t_lt % self._w[lt]) == 0
            tc.last_time[lt[ev]] = t_lt[ev]

        if _some(self.elig_cnt[lt]):
            erow, ecol = np.nonzero(self.elig_mask[lt])
            e_tid = lt[erow]
            e_pid = ecol.astype(np.int64)
        else:
            e_tid = e_pid = lt[:0]
        na, ne = a_tid.size, e_tid.size
        if na + ne == 0:
            if fr is not None:
                self._post_step(lt, t_lt)
            if self.auditor is not None:
                self.auditor.after_tick(self, lt, t_lt)
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

        flat = self._flat
        fi = tid * self.num_packets + pid
        nodes = flat["node"][fi]
        cur = flat["cursor"][fi]
        width = soa.width
        if fr is not None and _some(self.num_waiting[lt]):
            wait_at = (flat["state"][fi] == _WAIT) & (
                nodes == flat["wait_node"][fi]
            )
            any_wait = bool(_some(wait_at))
        else:
            wait_at = None
            any_wait = False
        if int(cur.max()) >= width:  # pragma: no cover - malformed guard
            bad = cur >= width
            if any_wait:
                bad &= ~wait_at
            if _some(bad):
                b = int(np.argmax(bad))
                raise SimulationError(
                    f"packet {int(pid[b])} has an empty current path at "
                    f"node {int(nodes[b])}"
                )
            cur = np.minimum(cur, width - 1)
        heads = soa.path_buf.reshape(-1)[fi * width + cur]
        if any_wait:
            edges = np.where(wait_at, flat["wait_edge"][fi], heads)
        else:
            edges = heads
        backward = self._edge_src[edges] != nodes
        slots = (edges << 1) + backward

        # -- (trial, slot) conflict split -----------------------------------
        span = self._num_edges << 1
        key = tid * span + slots
        sk = np.sort(key)
        dup = sk[1:] == sk[:-1]
        occupants = (tid, nodes, is_elig)
        deflected = None
        if _some(dup):
            # Arbitration reads last step's safe set: run it before the clear.
            # (Distinct rows by bincount: plain np.unique imports numpy.ma.)
            win, deflected = self._arbitrate(
                np.flatnonzero(np.bincount(sk[:-1][dup] // span)),
                tid, pid, nodes, is_elig, key, span,
            )
            tid, pid, fi, nodes, edges, backward, is_elig = (
                a[win]
                for a in (tid, pid, fi, nodes, edges, backward, is_elig)
            )
            if wait_at is not None:
                wait_at = wait_at[win]
        self.safe_mask[lt] = False
        delivered = self._apply_winners(
            tid, fi, nodes, edges, backward, wait_at, is_elig, occupants
        )
        if deflected is not None:
            self._apply_deflections(*deflected)
        if tc is not None and tid.size:
            tc.count_moves(
                self, tid, pid, nodes, backward, is_elig, delivered, deflected
            )

        if fr is not None:
            self._post_step(lt, t_lt)
        if self.auditor is not None:
            self.auditor.after_tick(self, lt, t_lt)
        self.t[lt] = t_lt + 1
        self.steps_executed[lt] += 1

    # -------------------------------------------------------------- pre-step

    def _pre_step(self, lt, t_lt, a_tid, a_pid) -> None:
        """Frontier pre-step across trials: marks, wait entries, coins."""
        fr = self.fr
        soa = self.soa
        flat = self._flat
        trials = self.trials
        tc = self.counters
        # A phase (m rounds of w steps) starts on a round start.
        rs_sel = (t_lt % self._w[lt]) == 0
        if _some(rs_sel):
            rs = lt[rs_sel]
            tr = t_lt[rs_sel]
            spp_rs = self._spp[rs]
            phase = tr // spp_rs
            ps_sel = (tr % spp_rs) == 0
            if _some(ps_sel):
                ps = rs[ps_sel]
                self.current_phase[ps] = phase[ps_sel]
                if tc is not None:
                    tc.phase_start(self, ps, phase[ps_sel])
                sub_elig = self.elig_mask[ps]
                newly = (
                    (soa.status[ps] == _PENDING)
                    & ~sub_elig
                    & (fr.injection_phase[ps] <= phase[ps_sel][:, None])
                )
                if _some(newly):
                    self.elig_mask[ps] = sub_elig | newly
                    self.elig_cnt[ps] += newly.sum(axis=1)
            if tc is not None:
                tc.rounds[rs] += 1
            rnd = (tr % spp_rs) // self._w[rs]
            tinner = np.where(rnd <= 1, 0, rnd - 1)
            self._target_by_set[rs] = (phase - tinner)[:, None] - (
                self._set_offsets[rs]
            )
            if a_tid.size:
                rflag = np.zeros(trials, dtype=bool)
                rflag[rs] = True
                sel = rflag[a_tid]
                if _some(sel):
                    wt = a_tid[sel]
                    wf = wt * self.num_packets + a_pid[sel]
                    state = flat["state"]
                    node = flat["node"][wf]
                    mask = (
                        (state[wf] != _WAIT)
                        & (flat["last_direction"][wf] == 0)
                        & (
                            self._node_levels[node]
                            == self._targets[
                                wt * self._most + flat["set_index"][wf]
                            ]
                        )
                    )
                    if _some(mask):
                        mt, mf = wt[mask], wf[mask]
                        if tc is not None:
                            tc.wait_entries(mt, state[mf])
                        state[mf] = _WAIT
                        flat["wait_node"][mf] = node[mask]
                        flat["wait_edge"][mf] = flat["last_edge"][mf]
                        wc = np.bincount(mt, minlength=trials)
                        self.wait_entries += wc
                        self.num_waiting += wc
        # Excitation coins: each trial draws one Generator.random(n) over
        # its active normal packets in active-id order, exactly the
        # reference stream; the flat buffer just batches the comparison.
        if a_tid.size:
            af = a_tid * self.num_packets + a_pid
            normal = (flat["state"][af] == _NORMAL) & self._coins[a_tid]
            if _some(normal):
                nt = a_tid[normal]
                counts = np.bincount(nt, minlength=trials)
                u = np.empty(nt.size, dtype=np.float64)
                off = 0
                for i in np.nonzero(counts)[0].tolist():
                    c = int(counts[i])
                    u[off:off + c] = self._router_rngs[i].random(c)
                    off += c
                hits = u < self._q[nt]
                if _some(hits):
                    et = nt[hits]
                    flat["state"][af[normal][hits]] = _EXCITED
                    ec = np.bincount(et, minlength=trials)
                    self.excitations += ec
                    self.num_excited += ec

    # ------------------------------------------------------------- post-step

    def _post_step(self, lt, t_lt) -> None:
        """Frontier post-step: round-end calms, phase-end releases."""
        trials = self.trials
        # A phase ends on a round end.
        round_end = ((t_lt + 1) % self._w[lt]) == 0
        if not _some(round_end):
            return
        ends = lt[round_end]
        phase_end = ((t_lt[round_end] + 1) % self._spp[ends]) == 0
        need = (
            (self.num_excited[ends] > 0)
            | (phase_end & (self.num_waiting[ends] > 0))
        ) & (self.act_cnt[ends] > 0)
        if not _some(need):
            return
        rows = ends[need]
        f_tid, f_pid = self._flat_active(rows)
        ff = f_tid * self.num_packets + f_pid
        flat = self._flat
        state = flat["state"]
        st = state[ff]
        exc = st == _EXCITED
        if _some(exc):
            state[ff[exc]] = _NORMAL
            c = np.bincount(f_tid[exc], minlength=trials)
            self.round_calms += c
            self.num_excited -= c
        pe_flag = np.zeros(trials, dtype=bool)
        pe_flag[ends[need & phase_end]] = True
        wsel = (st == _WAIT) & pe_flag[f_tid]
        if _some(wsel):
            wf = ff[wsel]
            state[wf] = _NORMAL
            flat["wait_node"][wf] = -1
            flat["wait_edge"][wf] = -1
            c = np.bincount(f_tid[wsel], minlength=trials)
            self.phase_releases += c
            self.num_waiting -= c

    # ----------------------------------------------------------------- apply

    def _apply_winners(
        self, tid, fi, nodes, edges, backward, wait_at, is_elig, occupants
    ):
        """Vectorized winner application for every trial of the tick.

        ``fi`` is each winner's flat ``trial * packets + packet`` index.
        Flat order is trial-major and, within a trial, the reference's
        granted order, so plain scatters reproduce its injection order.
        ``occupants`` is every participant's ``(tid, node, is_elig)``: the
        injection-isolation test counts all active packets, deflected
        losers included, and runs only when something is injected.
        Returns the mask of winners absorbed, or None when none were.
        """
        if not tid.size:
            return None
        soa = self.soa
        fr = self.fr
        flat = self._flat
        n = self.num_packets
        trials = self.trials
        t_of = self.t

        if _some(is_elig):
            inj_t = tid[is_elig]
            inj_f = fi[is_elig]
            inj_p = inj_f - inj_t * n
            flat["status"][inj_f] = _ACTIVE
            flat["injected_at"][inj_f] = t_of[inj_t]
            flat["elig"][inj_f] = False
            counts = np.bincount(inj_t, minlength=trials)
            self.elig_cnt -= counts
            seg_start = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )[inj_t]
            rank = np.arange(inj_t.size, dtype=np.int64) - seg_start
            flat["act"][inj_t * n + self.act_cnt[inj_t] + rank] = inj_p
            self.act_cnt += counts
            self.num_active += counts
            if fr is not None or self.counters is not None:
                o_tid, o_nodes, o_elig = occupants
                act_sel = ~o_elig
                occ_keys = o_tid[act_sel] * self._num_nodes + o_nodes[act_sel]
                inj_keys = inj_t * self._num_nodes + nodes[is_elig]
                # (_member, not np.isin, which imports numpy.ma: about
                # 1.2 MB of resident memory.)
                occupied = _member(np.sort(occ_keys), inj_keys)
                # Injections sharing a node crowd each other.
                order = np.argsort(inj_keys, kind="stable")
                same = inj_keys[order[1:]] == inj_keys[order[:-1]]
                shared = np.zeros(inj_keys.size, dtype=bool)
                shared[order[1:][same]] = True
                shared[order[:-1][same]] = True
                crowded = occupied | shared
                if self.auditor is not None:
                    self.auditor.injected(
                        self, inj_t, inj_p, nodes[is_elig], crowded
                    )
                if _some(crowded):
                    self.isolation_violations += np.bincount(
                        inj_t[crowded], minlength=trials
                    )

        cursor = flat["cursor"]
        if wait_at is not None and _some(wait_at):
            rf = fi[wait_at]
            if int(cursor[rf].min()) == 0:
                soa.grow_front()
            cursor[rf] -= 1
            soa.path_buf.reshape(-1)[rf * soa.width + cursor[rf]] = edges[
                wait_at
            ]
            cursor[fi[~wait_at]] += 1
        else:
            cursor[fi] += 1
        new_nodes = np.where(
            backward, self._edge_src[edges], self._edge_dst[edges]
        )
        if _some(backward):
            flat["backward_moves"][fi[backward]] += 1
        flat["last_direction"][fi] = backward
        flat["node"][fi] = new_nodes
        flat["last_edge"][fi] = edges
        flat["moves"][fi] += 1
        fwd = ~backward
        # REVERSE only happens backward, so forward winners are the safe
        # backward set E' of the next step.
        flat["safe"][fi[fwd]] = True

        delivered = (cursor[fi] == soa.width) & (
            new_nodes == flat["destination"][fi]
        )
        deliv_any = bool(_some(delivered))
        if deliv_any:
            dt_, df = tid[delivered], fi[delivered]
            flat["status"][df] = _ABSORBED
            flat["absorbed_at"][df] = t_of[dt_] + 1
            dc = np.bincount(dt_, minlength=trials)
            self.num_active -= dc
            self.num_absorbed += dc
            if fr is not None:
                exc = flat["state"][df] == _EXCITED
                if _some(exc):
                    self.num_excited -= np.bincount(
                        dt_[exc], minlength=trials
                    )
            # Drop the absorbed from each such trial's active row, keeping
            # injection order (a stable sort moves the kept ids first).
            rows = np.flatnonzero(dc)
            act = self.act_mat[rows]
            kept = (self._cols < self.act_cnt[rows][:, None]) & (
                flat["status"][act + (rows * n)[:, None]] == _ACTIVE
            )
            self.act_mat[rows] = np.take_along_axis(
                act, np.argsort(~kept, axis=1, kind="stable"), axis=1
            )
            self.act_cnt[rows] = kept.sum(axis=1)

        if fr is not None:
            # on_moved: forward path arrivals on the target level wait.
            state = flat["state"]
            cand = (state[fi] != _WAIT) & fwd
            if deliv_any:
                cand &= ~delivered
            if _some(cand):
                ct, cf = tid[cand], fi[cand]
                nn = new_nodes[cand]
                lvl_ok = self._node_levels[nn] == self._targets[
                    ct * self._most + flat["set_index"][cf]
                ]
                if _some(lvl_ok):
                    et, ef = ct[lvl_ok], cf[lvl_ok]
                    if self.counters is not None:
                        self.counters.wait_entries(et, state[ef])
                    state[ef] = _WAIT
                    flat["wait_node"][ef] = nn[lvl_ok]
                    flat["wait_edge"][ef] = edges[cand][lvl_ok]
                    wc = np.bincount(et, minlength=trials)
                    self.wait_entries += wc
                    self.num_waiting += wc
        return delivered if deliv_any else None

    def _apply_deflections(self, tid, pid, edges, unsafe) -> None:
        """Apply every trial's deflections: REVERSE moves onto ``edges``."""
        soa = self.soa
        fr = self.fr
        flat = self._flat
        trials = self.trials
        fi = tid * self.num_packets + pid
        cursor = flat["cursor"]
        c = cursor[fi]
        if int(c.min()) == 0:
            soa.grow_front()
            c = cursor[fi]
        c -= 1
        cursor[fi] = c
        soa.path_buf.reshape(-1)[fi * soa.width + c] = edges
        src = self._edge_src[edges]
        node = flat["node"]
        back = node[fi] != src
        node[fi] = np.where(back, src, self._edge_dst[edges])
        flat["last_direction"][fi] = back
        flat["backward_moves"][fi] += back
        flat["last_edge"][fi] = edges
        flat["moves"][fi] += 1
        flat["deflections"][fi] += 1
        if _some(unsafe):
            flat["unsafe_deflections"][fi] += unsafe
            self.unsafe_deflections += np.bincount(
                tid[unsafe], minlength=trials
            )
        if self.auditor is not None:
            self.auditor.deflected(self, tid, pid, edges, back, unsafe)
        if fr is not None:
            # on_deflected: a deflection evicts a waiting packet and calms
            # an excited one.
            state = flat["state"]
            st = state[fi]
            waiting = st == _WAIT
            if _some(waiting):
                wf = fi[waiting]
                state[wf] = _NORMAL
                flat["wait_node"][wf] = -1
                flat["wait_edge"][wf] = -1
                wc = np.bincount(tid[waiting], minlength=trials)
                self.wait_evictions += wc
                self.num_waiting -= wc
            excited = st == _EXCITED
            if _some(excited):
                state[fi[excited]] = _NORMAL
                calmed = np.bincount(tid[excited], minlength=trials)
                self.num_excited -= calmed
                if self.counters is not None:
                    self.counters.deflection_calms += calmed

    # ---------------------------------------------------------- fast-forward

    def _quiescent_rows(self, lt):
        """Trials of ``lt`` that are quiescent, with per-trial horizons."""
        fr = self.fr
        soa = self.soa
        # Quiescent trials have nothing eligible, and no active packet or
        # only waiting ones: two count checks rule most trials out.
        act = self.act_cnt[lt]
        cand = lt[
            (self.elig_cnt[lt] == 0)
            & ((act == 0) | (self.num_waiting[lt] == act))
        ]
        if not cand.size:
            return None, None
        unmarked = (soa.status[cand] == _PENDING) & ~self.elig_mask[cand]
        ip = np.where(unmarked, fr.injection_phase[cand], _NO_PHASE)
        minph = ip.min(axis=1)
        has_pending = minph < _NO_PHASE
        spp = self._spp[cand]
        cur_phase = self.t[cand] // spp
        ok = ~has_pending | (minph > cur_phase)
        if not ok.all():
            cand = cand[ok]
            minph = minph[ok]
            has_pending = has_pending[ok]
            cur_phase = cur_phase[ok]
            spp = spp[ok]
        if not cand.size:
            return None, None
        empty = self.act_cnt[cand] == 0
        horizon = np.where(empty, minph * spp, (cur_phase + 1) * spp)
        keep = np.ones(cand.size, dtype=bool)
        keep[empty & ~has_pending] = False
        nonempty = ~empty
        if _some(nonempty):
            all_wait = (
                self.num_waiting[cand] == self.act_cnt[cand]
            ) & nonempty
            keep &= all_wait | empty
            chk = cand[all_wait]
            if chk.size:
                f_tid, f_pid = self._flat_active(chk)
                ff = f_tid * self.num_packets + f_pid
                flat = self._flat
                osc = flat["wait_edge"][ff] * 2 + (
                    flat["node"][ff] == flat["wait_node"][ff]
                )
                span = 2 * self._num_edges + 2
                sk = np.sort(f_tid * span + osc)
                d = sk[1:] == sk[:-1]
                if _some(d):  # pragma: no cover - theory says impossible
                    badrows = np.unique(sk[:-1][d] // span)
                    keep &= ~np.isin(cand, badrows)
        rows = cand[keep]
        if not rows.size:
            return None, None
        return rows, horizon[keep]

    def _advance_span(self, rows, k_rows) -> None:
        """Analytically apply ``k_rows`` quiescent oscillation steps."""
        soa = self.soa
        flat = self._flat
        self.safe_mask[rows] = False
        if not _some(self.act_cnt[rows]):
            return
        k_arr = np.zeros(self.trials, dtype=np.int64)
        k_arr[rows] = k_rows
        f_tid, f_pid = self._flat_active(rows)
        ff = f_tid * self.num_packets + f_pid
        node, wait_node, wait_edge = (
            flat["node"], flat["wait_node"], flat["wait_edge"]
        )
        at_wait = node[ff] == wait_node[ff]
        kf = k_arr[f_tid]
        flat["moves"][ff] += kf
        flat["backward_moves"][ff] += np.where(
            at_wait, (kf + 1) // 2, kf // 2
        )
        odd = (kf & 1) == 1
        if _some(odd):
            cursor = flat["cursor"]
            leaving = odd & at_wait
            if _some(leaving):
                lf = ff[leaving]
                if int(cursor[lf].min()) == 0:
                    soa.grow_front()
                cursor[lf] -= 1
                we = wait_edge[lf]
                soa.path_buf.reshape(-1)[lf * soa.width + cursor[lf]] = we
                node[lf] = self._edge_src[we]
                flat["last_direction"][lf] = 1
            returning = odd & ~at_wait
            if _some(returning):
                rf = ff[returning]
                cursor[rf] += 1
                node[rf] = self._edge_dst[wait_edge[rf]]
                flat["last_direction"][rf] = 0
            of = ff[odd]
            flat["last_edge"][of] = wait_edge[of]
        ended = ff[node[ff] == wait_node[ff]]
        flat["safe"][ended] = True

    def _fast_forward(self, lt) -> None:
        """Reference-equivalent quiescence skip across trials."""
        rows, horizon = self._quiescent_rows(lt)
        if rows is None:
            return
        target = horizon - 1  # simulate the boundary step normally
        k = target - self.t[rows]
        adv = k > 0
        if not _some(adv):
            return
        rows, target, k = rows[adv], target[adv], k[adv]
        self._advance_span(rows, k)
        if self.counters is not None:
            self.counters.fast_forward(rows, self.t[rows])
        self.t[rows] = target
        self.steps_skipped[rows] += k

    def _bulk_advance(self, lt, budget) -> None:
        """Quiescent spans as *executed* steps (fast-forward disabled)."""
        rows, horizon = self._quiescent_rows(lt)
        if rows is None:
            return
        target = np.minimum(horizon - 1, budget[rows])
        k = target - self.t[rows]
        adv = k > 0
        if not _some(adv):
            return
        rows, target, k = rows[adv], target[adv], k[adv]
        self._advance_span(rows, k)
        phase = (target - 1) // self._spp[rows]
        self.current_phase[rows] = np.maximum(self.current_phase[rows], phase)
        self.t[rows] = target
        self.steps_executed[rows] += k

    # ---------------------------------------------------------------- result

    def result(self, i: int) -> RunResult:
        """Trial ``i``'s metrics, field-identical to its per-trial run.

        Without its telemetry counters: :meth:`run` attaches those for the
        whole batch at once.
        """
        problem = self.problems[i]
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
                "num_sets": float(self._num_sets[i]),
                "m": float(self._m[i]),
                "w": float(self._w[i]),
                "q": float(self._q[i]),
                "excitations": float(self.excitations[i]),
                "wait_entries": float(self.wait_entries[i]),
                "wait_evictions": float(self.wait_evictions[i]),
                "phase_releases": float(self.phase_releases[i]),
                "isolation_violations": float(self.isolation_violations[i]),
                "phases_elapsed": float(self.current_phase[i] + 1),
            }
        return RunResult(
            router_name=self.router_name,
            network_name=problem.net.name,
            num_packets=n,
            congestion=problem.congestion,
            dilation=problem.dilation,
            depth=problem.net.depth,
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
