"""The synchronous bufferless routing engine.

Implements the machine model of the paper's Section 1.1: synchronous nodes;
at each time step a node receives packets, makes a routing decision, and
forwards every resident packet on some incident link; at most one packet per
link *per direction* per step (footnote 1).  The engine is algorithm-
agnostic — a :class:`~repro.sim.router.Router` supplies desires, priorities
and state transitions — and enforces the mechanics that every hot-potato
algorithm shares:

* **Arbitration.**  Packets contending for the same directed edge slot are
  ranked by router priority; ties break uniformly at random.  Exactly one
  wins; active losers are *deflected*, pending (uninjected) losers stay put.
* **Deflection matching.**  Losers at a node are matched injectively to free
  slots, preferring *safe backward* slots — in-edges that some packet
  traversed forward (by a genuine path-following move) in the previous step,
  exactly Lemma 2.1's edge set ``E'``.  Falling back to an unsafe slot is
  possible for arbitrary routers and is recorded; the paper's algorithm
  never needs it (Lemma 2.1), which invariant ``I_b`` audits.
* **Bookkeeping.**  Forward path moves pop the path head; deflections and
  backward oscillation prepend the traversed edge (Section 2.3).  A packet
  is absorbed the moment it reaches its destination.
* **Quiescence fast-forward.**  When the router certifies that every active
  packet is deterministically oscillating (all in wait state, no pending
  injections) up to some horizon, the engine advances positions analytically
  instead of stepping; see DESIGN.md Section 4.7.

Performance
-----------
:meth:`Engine.step` is the hot loop of every experiment, so it runs on the
network's precomputed :class:`~repro.net.NetworkGeometry` (dense endpoint
and slot-id tables instead of method calls), encodes directed slots as
single ints, reuses per-step scratch containers instead of allocating fresh
dicts, applies moves with inlined path bookkeeping, and computes
injection-isolation occupancy only on steps that actually inject.  The
observable semantics — arbitration order, RNG draw sequence, router hook
order, trace events, error messages — are identical to the straightforward
implementation and are pinned by the golden trace regression tests (see
docs/performance.md for the preserved invariants).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CapacityError, SimulationError
from ..net import LeveledNetwork
from ..paths import PacketSpec, RoutingProblem
from ..rng import RngLike, make_rng
from ..telemetry.context import current_session
from ..types import Direction, EdgeId, MoveKind, NodeId, PacketId
from .events import EventKind, TraceEvent
from .metrics import RunResult
from .packet import Packet, PacketStatus
from .router import DesiredMove, Router

#: A directed edge slot: ``(edge, traversal direction)``.
Slot = Tuple[EdgeId, Direction]

Observer = Callable[[TraceEvent], None]

_FORWARD = Direction.FORWARD
_BACKWARD = Direction.BACKWARD
_PENDING = PacketStatus.PENDING
_ACTIVE = PacketStatus.ACTIVE
_FOLLOW = MoveKind.FOLLOW
_REVERSE = MoveKind.REVERSE


class Engine:
    """Synchronous simulator for one routing problem and one router."""

    def __init__(
        self,
        problem: RoutingProblem,
        router: Router,
        seed: RngLike = None,
        observers: Sequence[Observer] = (),
        enable_fast_forward: bool = True,
        geometry=None,
    ) -> None:
        self.problem = problem
        self.net: LeveledNetwork = problem.net
        self.router = router
        self.rng = make_rng(seed)
        self.packets: List[Packet] = [Packet(spec) for spec in problem]
        self.t = 0
        self.steps_executed = 0
        self.steps_skipped = 0
        self.num_absorbed = 0
        self.num_active = 0
        #: active packet ids in injection order (dict for deterministic
        #: iteration; values unused) — avoids scanning all packets per step
        self.active_ids: Dict[PacketId, None] = {}
        #: pending packets currently allowed to attempt injection
        self.eligible: Set[PacketId] = set()
        #: arrival schedule gating eligibility (None = ungated)
        self._arrivals = None
        #: router-approved pending packets whose arrival time has not come
        self._held: Set[PacketId] = set()
        #: retired packet slots available for mid-run admission reuse
        self._free_pids: List[PacketId] = []
        #: in-edges traversed forward by a path-following move last step,
        #: keyed by the node they arrived at (Lemma 2.1's ``E'`` per node)
        self.safe_in: Dict[NodeId, Set[EdgeId]] = {}
        self._observers: List[Observer] = list(observers)
        self._enable_fast_forward = enable_fast_forward
        self.unsafe_deflections = 0
        #: ids absorbed in the last executed step, in absorption order;
        #: cleared at the top of each step, so it holds at most what was in
        #: flight (the open-loop driver reads it instead of ABSORB events)
        self.last_absorbed: List[PacketId] = []
        #: called as ``hook(engine, t)`` after each executed step (auditors)
        self.post_step_hooks: List[Callable[["Engine", int], None]] = []
        #: TimingSpans fed by run() when a telemetry session is active
        self._step_timer = None

        # Dense geometry tables (built once per network, shared by engines).
        # ``geometry`` lets warm-cache callers hand in a prebuilt table set
        # explicitly; otherwise the network's own cached build is used.
        geo = geometry if geometry is not None else self.net.geometry()
        self._edge_src = geo.edge_src
        self._edge_dst = geo.edge_dst
        self._in_edges = geo.in_edges
        self._in_slot_ids = geo.in_slot_ids
        self._out_edges = geo.out_edges
        self._out_slot_ids = geo.out_slot_ids

        # Routers inheriting the default delivery rule (path exhausted at
        # the destination) get it inlined in the hot loop; overriding
        # routers keep the virtual call.
        self._default_delivery = type(router).is_delivered is Router.is_delivered

        # Per-step scratch containers, reused across steps.  ``_contenders``
        # maps an encoded slot id to either a single packet id (the common,
        # conflict-free case — no list is allocated) or a list of them.
        self._desired_kinds: Dict[PacketId, MoveKind] = {}
        self._contenders: Dict[int, object] = {}
        self._used_slots: Set[int] = set()
        self._granted: Dict[PacketId, Tuple[EdgeId, MoveKind]] = {}
        self._losers_by_node: Dict[NodeId, List[PacketId]] = {}
        self._deflected: List[Tuple[PacketId, EdgeId, bool]] = []

        # Problems may carry an arrival schedule (dynamic workloads built by
        # repro.traffic.problem_from_arrivals); install it before the router
        # attaches so its eligibility marks are gated from the start.
        schedule = getattr(problem, "arrival_schedule", None)
        if schedule is not None:
            self.set_arrival_schedule(schedule)

        router.attach(self)

        # Scoped observability: engines built under an active telemetry
        # session get its observers/timers; one None check otherwise.
        session = current_session()
        if session is not None:
            session.attach(self)

    # ---------------------------------------------------------------- events

    def add_observer(self, observer: Observer) -> None:
        """Register an event observer (tracer, auditor, ...)."""
        self._observers.append(observer)

    def emit(self, event: TraceEvent) -> None:
        """Deliver an event to all observers."""
        for observer in self._observers:
            observer(event)

    @property
    def tracing(self) -> bool:
        """Whether any observer is attached (guards event construction)."""
        return bool(self._observers)

    # ------------------------------------------------------------- injection

    def set_arrival_schedule(self, schedule) -> None:
        """Gate injection eligibility on an :class:`ArrivalSchedule`.

        Router eligibility marks for packets whose arrival time has not come
        are *held* and released at the top of the step they become due, so a
        packet becomes eligible at ``max(mark time, arrival time)``.  Called
        automatically for problems carrying ``arrival_schedule``.
        """
        schedule.validate_for(len(self.packets))
        self._arrivals = schedule
        # Re-gate marks made before the schedule was installed.
        if self.eligible:
            t = self.t
            late = [p for p in self.eligible if schedule.time_of(p) > t]
            for pid in late:
                self.eligible.discard(pid)
                self._held.add(pid)
        if self._held:
            t = self.t
            due = [p for p in self._held if schedule.time_of(p) <= t]
            for pid in due:
                self._held.discard(pid)
                if self.packets[pid].is_pending:
                    self.eligible.add(pid)

    def mark_eligible(self, packet_id: PacketId) -> None:
        """Allow a pending packet to attempt injection from this step on.

        With an arrival schedule installed, marks for packets that have not
        arrived yet are held until their arrival step.
        """
        packet = self.packets[packet_id]
        if packet.is_pending:
            schedule = self._arrivals
            if schedule is not None and schedule.time_of(packet_id) > self.t:
                self._held.add(packet_id)
            else:
                self.eligible.add(packet_id)

    def mark_all_eligible(self) -> None:
        """Convenience for routers that inject everything immediately."""
        if self._arrivals is not None:
            for packet in self.packets:
                if packet.is_pending:
                    self.mark_eligible(packet.packet_id)
            return
        for packet in self.packets:
            if packet.is_pending:
                self.eligible.add(packet.packet_id)

    # ------------------------------------------------------------- streaming

    def admit(self, source: NodeId, destination: NodeId, path) -> PacketId:
        """Admit a new packet mid-run; it is immediately eligible.

        ``path`` is a :class:`~repro.paths.Path` from source to destination.
        The open-loop streaming driver (:mod:`repro.traffic.stream`) calls
        this as arrivals come in, pairing it with :meth:`retire` so memory
        stays bounded by the number of packets in flight, not the total
        injected.
        """
        if self._free_pids:
            pid = self._free_pids.pop()
            self.packets[pid] = Packet(PacketSpec(pid, source, destination, path))
        else:
            pid = len(self.packets)
            self.packets.append(Packet(PacketSpec(pid, source, destination, path)))
        self.eligible.add(pid)
        return pid

    def retire(self, packet_id: PacketId) -> None:
        """Release an absorbed packet's slot for reuse by :meth:`admit`."""
        packet = self.packets[packet_id]
        if packet.status is not PacketStatus.ABSORBED:
            raise SimulationError(
                f"cannot retire packet {packet_id}: not absorbed"
            )
        self._free_pids.append(packet_id)

    # ------------------------------------------------------------------ step

    def step(self) -> None:
        """Execute one synchronous time step."""
        t = self.t
        router = self.router
        packets = self.packets
        rng = self.rng
        tracing = bool(self._observers)
        edge_src = self._edge_src
        edge_dst = self._edge_dst
        self.last_absorbed.clear()

        # -- arrival release ------------------------------------------------
        # Held router marks whose arrival time is due become eligible now,
        # before the router's pre_step hook (which may mark more packets).
        if self._held:
            held = self._held
            for pid in self._arrivals.due_at(t):
                if pid in held:
                    held.discard(pid)
                    if packets[pid].is_pending:
                        self.eligible.add(pid)

        router.pre_step(t)

        # -- gather desires and group contenders per directed slot ---------
        # One merged pass over the participants (active packets in injection
        # order, then eligible pending ones by id): validate each desire,
        # remember its move kind, and bucket the packet under the encoded
        # slot id of its desired traversal.
        desired_kinds = self._desired_kinds
        desired_kinds.clear()
        contenders = self._contenders
        contenders.clear()
        desired_move = router.desired_move

        if self.eligible:
            participants = list(self.active_ids)
            participants.extend(sorted(self.eligible))
        else:
            participants = list(self.active_ids)
        for pid in participants:
            desire = desired_move(pid, t)
            edge = desire.edge
            node = packets[pid].node
            if node == edge_src[edge]:
                slot = edge << 1  # FORWARD
            elif node == edge_dst[edge]:
                slot = (edge << 1) | 1  # BACKWARD
            else:
                raise SimulationError(
                    f"router desired edge {edge} not incident to "
                    f"packet {pid} at node {node}"
                )
            desired_kinds[pid] = desire.kind
            current = contenders.get(slot)
            if current is None:
                contenders[slot] = pid
            elif type(current) is list:
                current.append(pid)
            else:
                contenders[slot] = [current, pid]

        # -- arbitration per directed slot ---------------------------------
        used_slots = self._used_slots
        used_slots.clear()
        granted = self._granted
        granted.clear()
        losers_by_node = self._losers_by_node
        losers_by_node.clear()
        #: slots granted to not-yet-injected packets, revocable per node:
        #: active packets MUST move (hot potato), pending ones can wait
        pending_grants: Optional[Dict[NodeId, List[Tuple[PacketId, int]]]] = None
        priority = router.priority
        for slot, pids in contenders.items():
            if type(pids) is not list:
                # Sole contender: no ranking, no priority call, no RNG draw.
                winner = pids
                used_slots.add(slot)
                granted[winner] = (slot >> 1, desired_kinds[winner])
                wp = packets[winner]
                if wp.status is _PENDING:
                    if pending_grants is None:
                        pending_grants = {}
                    pending_grants.setdefault(wp.node, []).append((winner, slot))
                continue
            # Active packets outrank pending ones unconditionally; the
            # router's priority breaks ties within each class.  The
            # priority hook is consulted exactly once per contender
            # (it may be stateful or randomized).
            best: List[PacketId] = []
            best_cls = -1
            best_prio = 0
            for pid in pids:
                cls = 1 if packets[pid].status is _ACTIVE else 0
                prio = priority(pid, t)
                if cls > best_cls or (cls == best_cls and prio > best_prio):
                    best_cls = cls
                    best_prio = prio
                    best = [pid]
                elif cls == best_cls and prio == best_prio:
                    best.append(pid)
            winner = (
                best[int(rng.integers(0, len(best)))]
                if len(best) > 1
                else best[0]
            )
            used_slots.add(slot)
            granted[winner] = (slot >> 1, desired_kinds[winner])
            wp = packets[winner]
            if wp.status is _PENDING:
                if pending_grants is None:
                    pending_grants = {}
                pending_grants.setdefault(wp.node, []).append((winner, slot))
            for pid in pids:
                if pid == winner:
                    continue
                packet = packets[pid]
                if packet.status is _ACTIVE:
                    losers = losers_by_node.get(packet.node)
                    if losers is None:
                        losers_by_node[packet.node] = [pid]
                    else:
                        losers.append(pid)
                # Pending losers simply fail to inject this step.

        # -- deflection slot matching --------------------------------------
        deflected = self._deflected
        deflected.clear()
        if losers_by_node:
            safe_in = self.safe_in
            in_edges = self._in_edges
            in_slot_ids = self._in_slot_ids
            out_edges = self._out_edges
            out_slot_ids = self._out_slot_ids
            for node, losers in losers_by_node.items():
                if len(losers) > 1:
                    rng.shuffle(losers)
                safe_here = safe_in.get(node, ())
                # Safe backward slots first (Lemma 2.1), then unsafe
                # backward, then forward, mirroring the paper's
                # backward-deflection rule.  Candidates are ``(edge, slot,
                # safe)``; only the first ``len(losers)`` are consumed, so
                # collection stops as soon as enough are found.
                needed = len(losers)
                candidates: List[Tuple[EdgeId, int, bool]] = []
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
                node_pending = (
                    pending_grants.get(node) if pending_grants else None
                )
                while len(candidates) < needed and node_pending:
                    # Deflected residents must move; revoke an injection
                    # grant at this node and recycle its slot ("a packet is
                    # injected at any subsequent step in which there is an
                    # available link").
                    revoked, slot = node_pending.pop()
                    del granted[revoked]
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

        # -- apply winner moves ---------------------------------------------
        # Injection-isolation bookkeeping is only needed on steps that
        # actually inject; compute the occupancy snapshot lazily, before any
        # packet has moved.
        occupants: Optional[Dict[NodeId, int]] = None
        injecting_at: Optional[Dict[NodeId, int]] = None
        if pending_grants is not None:
            inject_nodes = set()
            for pid, (edge, kind) in granted.items():
                if packets[pid].status is _PENDING:
                    inject_nodes.add(packets[pid].node)
            if inject_nodes:
                occupants = dict.fromkeys(inject_nodes, 0)
                for pid in self.active_ids:
                    node = packets[pid].node
                    if node in occupants:
                        occupants[node] += 1
                injecting_at = dict.fromkeys(inject_nodes, 0)
                for pid in granted:
                    packet = packets[pid]
                    if packet.status is _PENDING:
                        injecting_at[packet.node] += 1

        emit = self.emit
        is_delivered = router.is_delivered
        default_delivery = self._default_delivery
        on_moved = router.on_moved
        safe_next: Dict[NodeId, Set[EdgeId]] = {}
        for pid, (edge, kind) in granted.items():
            packet = packets[pid]
            if packet.status is _PENDING:
                isolated = (
                    occupants[packet.node] == 0
                    and injecting_at[packet.node] == 1
                )
                packet.status = _ACTIVE
                packet.injected_at = t
                self.eligible.discard(pid)
                self.num_active += 1
                self.active_ids[pid] = None
                if tracing:
                    emit(
                        TraceEvent(
                            t,
                            EventKind.INJECT,
                            packet=pid,
                            node=packet.node,
                            detail="isolated" if isolated else "crowded",
                        )
                    )
                router.on_injected(pid, t, isolated)
            # Inlined move application (see Packet.apply_follow/apply_reverse
            # for the reference semantics and Section 2.3 for the rules).
            node = packet.node
            if kind is _FOLLOW:
                path = packet.path
                if not path:
                    raise SimulationError(
                        f"packet {pid} has an empty current path at node "
                        f"{node}"
                    )
                if path[0] != edge:
                    raise SimulationError(
                        f"packet {pid}: FOLLOW move on edge {edge} but "
                        f"path head is {path[0]}"
                    )
                path.popleft()
            elif kind is _REVERSE:
                packet.path.appendleft(edge)
            if node == edge_src[edge]:
                direction = _FORWARD
                packet.node = edge_dst[edge]
            else:
                direction = _BACKWARD
                packet.node = edge_src[edge]
                packet.backward_moves += 1
            packet.last_edge = edge
            packet.last_direction = direction
            packet.moves += 1
            if direction is _FORWARD and kind is not _REVERSE:
                dest_safe = safe_next.get(packet.node)
                if dest_safe is None:
                    safe_next[packet.node] = {edge}
                else:
                    dest_safe.add(edge)
            if tracing:
                emit(
                    TraceEvent(
                        t,
                        EventKind.MOVE,
                        packet=pid,
                        node=packet.node,
                        edge=edge,
                        direction=direction,
                    )
                )
            if (
                (not packet.path and packet.node == packet.destination)
                if default_delivery
                else is_delivered(pid)
            ):
                self._absorb(packet, t)
            else:
                on_moved(pid, t, edge)

        # -- apply deflections ----------------------------------------------
        if deflected:
            deflection_kind = getattr(
                router, "deflection_kind", MoveKind.REVERSE
            )
            on_deflected = router.on_deflected
            for pid, edge, safe in deflected:
                packet = packets[pid]
                if deflection_kind is _FOLLOW:
                    packet.apply_follow(self.net, edge)
                else:
                    if deflection_kind is _REVERSE:
                        packet.path.appendleft(edge)
                    node = packet.node
                    if node == edge_src[edge]:
                        packet.last_direction = _FORWARD
                        packet.node = edge_dst[edge]
                    else:
                        packet.last_direction = _BACKWARD
                        packet.node = edge_src[edge]
                        packet.backward_moves += 1
                    packet.last_edge = edge
                    packet.moves += 1
                packet.deflections += 1
                if not safe:
                    packet.unsafe_deflections += 1
                    self.unsafe_deflections += 1
                if tracing:
                    emit(
                        TraceEvent(
                            t,
                            EventKind.DEFLECT
                            if safe
                            else EventKind.UNSAFE_DEFLECT,
                            packet=pid,
                            node=packet.node,
                            edge=edge,
                            direction=packet.last_direction,
                        )
                    )
                if (
                    (not packet.path and packet.node == packet.destination)
                    if default_delivery
                    else is_delivered(pid)
                ):
                    # Possible for path-less routers deflected into their
                    # destination; path routers never deliver by deflection.
                    self._absorb(packet, t)
                else:
                    on_deflected(pid, t, edge, safe)

        # -- safety bookkeeping for the next step ---------------------------
        # ``safe_next`` was accumulated while applying winner moves; granted
        # and deflected packet sets are disjoint, so deflections cannot
        # invalidate it.
        self.safe_in = safe_next

        router.post_step(t)
        for hook in self.post_step_hooks:
            hook(self, t)
        self.t = t + 1
        self.steps_executed += 1

    def _apply_move(self, packet: Packet, edge: EdgeId, kind: MoveKind) -> None:
        if kind is MoveKind.FOLLOW:
            packet.apply_follow(self.net, edge)
        elif kind is MoveKind.REVERSE:
            packet.apply_reverse(self.net, edge)
        else:
            packet.apply_free(self.net, edge)

    def _absorb(self, packet: Packet, t: int) -> None:
        packet.status = PacketStatus.ABSORBED
        packet.absorbed_at = t + 1
        self.num_active -= 1
        self.num_absorbed += 1
        del self.active_ids[packet.packet_id]
        self.last_absorbed.append(packet.packet_id)
        if self.tracing:
            self.emit(
                TraceEvent(
                    t, EventKind.ABSORB, packet=packet.packet_id, node=packet.node
                )
            )

    @property
    def last_deflections(self) -> int:
        """Deflections applied in the last executed step, safe or not."""
        return len(self._deflected)

    # ---------------------------------------------------------- fast-forward

    def _try_fast_forward(self) -> None:
        """Skip to one step before the router's quiescent horizon."""
        horizon = self.router.quiescent_horizon(self.t)
        if horizon is None:
            return
        if self._held:
            # Defensive clamp for routers unaware of arrival gating: never
            # skip past the next held packet's arrival step.  (The frontier
            # router already returns None whenever a marked packet is held,
            # since held marks imply a due injection phase.)
            schedule = self._arrivals
            next_due = min(schedule.time_of(pid) for pid in self._held)
            if next_due < horizon:
                horizon = next_due
        target = horizon - 1  # simulate the boundary step normally
        k = target - self.t
        if k <= 0:
            return
        safe_in = self.router.fast_forward(self.t, target)
        self.safe_in = safe_in
        if self.tracing:
            self.emit(
                TraceEvent(
                    self.t,
                    EventKind.FAST_FORWARD,
                    detail=f"skipped {k} steps to {target}",
                )
            )
        self.t = target
        self.steps_skipped += k

    # ------------------------------------------------------------------- run

    @property
    def done(self) -> bool:
        """All packets absorbed."""
        return self.num_absorbed == len(self.packets)

    def run(self, max_steps: int) -> RunResult:
        """Run until delivery or the step budget; return metrics."""
        timer = self._step_timer
        if timer is None:
            while not self.done and self.t < max_steps:
                if self._enable_fast_forward:
                    self._try_fast_forward()
                self.step()
        else:
            from time import perf_counter

            add_step = timer.add_step
            while not self.done and self.t < max_steps:
                if self._enable_fast_forward:
                    self._try_fast_forward()
                start = perf_counter()
                self.step()
                add_step(perf_counter() - start)
        return self.result()

    def result(self) -> RunResult:
        """Snapshot the metrics of the run so far."""
        return RunResult(
            router_name=type(self.router).__name__,
            network_name=self.net.name,
            num_packets=len(self.packets),
            congestion=self.problem.congestion,
            dilation=self.problem.dilation,
            depth=self.net.depth,
            delivered=self.num_absorbed,
            makespan=max(
                (p.absorbed_at for p in self.packets if p.absorbed_at is not None),
                default=self.t,
            )
            if self.done
            else self.t,
            steps_executed=self.steps_executed,
            steps_skipped=self.steps_skipped,
            delivery_times=[p.absorbed_at for p in self.packets],
            deflections_per_packet=[p.deflections for p in self.packets],
            unsafe_deflections=self.unsafe_deflections,
            total_moves=sum(p.moves for p in self.packets),
            total_backward_moves=sum(p.backward_moves for p in self.packets),
            extra=dict(getattr(self.router, "extra_metrics", lambda: {})()),
        )
