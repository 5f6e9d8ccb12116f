"""Invariant auditing (the paper's Section 4 invariants ``I_a .. I_f``).

The analysis proves six invariants hold at the end of every phase with high
probability; :class:`InvariantAuditor` checks them *empirically* during a
run:

``I_a``  packets are injected in isolation;
``I_b``  deflections are backward and safe, and current paths stay valid;
``I_c``  active packets stay inside their own frontier-frame;
``I_d``  packets of different frontier-sets never meet;
``I_e``  per-frontier-set congestion never exceeds its bound;
``I_f``  at each phase end, every active packet of frame ``F_i`` sits at an
         inner-level ``<= m − 4`` (the last three inner levels are empty).

Experiment T3 runs audited trials and reports the violation counts (expected
all-zero for ``I_a``–``I_d`` whenever ``I_e`` holds at time 0, and for
``I_e``/``I_f`` with the paper-faithful probability story).

This auditor is the reference semantics.  Audited trials that the trial
executor batches run on the lockstep kernel instead, whose
:class:`~repro.sim.lockstep_audit.TrialAuditor` evaluates the same checks
as array predicates after each executed tick and returns, per trial, an
:class:`AuditReport` equal to this auditor's: same violations (invariant,
time, detail, order), ``checks_run`` and ``max_set_congestion_seen``.
Only the default sampling (every check on every executed step) has a
lockstep twin; ``check_paths_every``/``check_congestion_every`` and
``strict`` are reference-only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import InvariantViolation
from ..paths import is_valid_edge_sequence, per_set_congestion
from ..sim import Engine, EventKind, TraceEvent
from ..types import Direction
from .algorithm import FrontierFrameRouter


@dataclass
class Violation:
    """One recorded invariant violation."""

    invariant: str
    time: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant} @ t={self.time}] {self.detail}"


@dataclass
class AuditReport:
    """Aggregated audit outcome."""

    violations: List[Violation] = field(default_factory=list)
    checks_run: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    max_set_congestion_seen: int = 0

    @property
    def ok(self) -> bool:
        """Whether every checked invariant held throughout."""
        return not self.violations

    def count(self, invariant: str) -> int:
        """Violations recorded for one invariant."""
        return sum(1 for v in self.violations if v.invariant == invariant)

    def summary(self) -> str:
        """One-line report row."""
        if self.ok:
            return (
                "all invariants held "
                f"(max C_i^t seen: {self.max_set_congestion_seen})"
            )
        parts = [
            f"{name}:{self.count(name)}"
            for name in (
                "I_a",
                "I_b",
                "I_c",
                "I_d",
                "I_e",
                "I_e_conservation",
                "I_f",
            )
            if self.count(name)
        ]
        return f"{len(self.violations)} violation(s): " + ", ".join(parts)


class InvariantAuditor:
    """Observes an engine running :class:`FrontierFrameRouter`.

    Parameters
    ----------
    router:
        The frontier-frame router under audit.
    check_paths_every:
        Steps between full current-path validity scans (``I_b``'s expensive
        part); event-driven checks (backwardness/safety of deflections,
        isolation) are always on.
    check_congestion_every:
        Steps between per-set congestion scans (``I_e``).
    strict:
        Raise :class:`~repro.errors.InvariantViolation` on the first
        violation instead of recording it.
    """

    def __init__(
        self,
        router: FrontierFrameRouter,
        check_paths_every: int = 1,
        check_congestion_every: int = 1,
        strict: bool = False,
        congestion_bound: Optional[float] = None,
    ) -> None:
        self.router = router
        self.report = AuditReport()
        self.check_paths_every = max(1, check_paths_every)
        self.check_congestion_every = max(1, check_congestion_every)
        self.strict = strict
        #: bound for the paper-faithful I_e check; ``None`` means audit only
        #: congestion *conservation* against the realized initial ``C_i^0``
        #: (Lemma 4.10), skipping the probabilistic Lemma 2.2 part.
        self.congestion_bound = congestion_bound
        self._initial_set_congestions: Optional[List[int]] = None

    # -------------------------------------------------------------- plumbing

    def install(self, engine: Engine) -> None:
        """Register with an engine (event observer + post-step hook)."""
        engine.add_observer(self.on_event)
        engine.post_step_hooks.append(self.post_step)

    def _record(self, invariant: str, time: int, detail: str) -> None:
        violation = Violation(invariant, time, detail)
        self.report.violations.append(violation)
        if self.strict:
            raise InvariantViolation(str(violation))

    # ------------------------------------------------------- event-driven

    def on_event(self, event: TraceEvent) -> None:
        """Check the injection (I_a) and deflection (I_b) events."""
        if event.kind is EventKind.INJECT:
            self.report.checks_run["I_a"] += 1
            if event.detail != "isolated":
                self._record(
                    "I_a",
                    event.time,
                    f"packet {event.packet} injected at node {event.node} "
                    "while other packets were present",
                )
        elif event.kind is EventKind.DEFLECT:
            self.report.checks_run["I_b"] += 1
            if event.direction is not Direction.BACKWARD:
                self._record(
                    "I_b",
                    event.time,
                    f"packet {event.packet} deflected forward on edge "
                    f"{event.edge}",
                )
        elif event.kind is EventKind.UNSAFE_DEFLECT:
            self.report.checks_run["I_b"] += 1
            self._record(
                "I_b",
                event.time,
                f"packet {event.packet} deflected unsafely on edge "
                f"{event.edge}",
            )

    # ---------------------------------------------------------- step-driven

    def post_step(self, engine: Engine, t: int) -> None:
        """Run the per-step and phase-end scans."""
        router = self.router
        net = engine.net
        clock = router.clock
        geometry = router.geometry
        phase = clock.phase(t)

        active = [p for p in engine.packets if p.is_active]

        # I_b: current paths remain valid (periodic full scan).
        if t % self.check_paths_every == 0:
            self.report.checks_run["I_b_paths"] += 1
            for packet in active:
                if not is_valid_edge_sequence(net, packet.path, packet.node):
                    self._record(
                        "I_b",
                        t,
                        f"packet {packet.packet_id} has an invalid current "
                        f"path at node {packet.node}",
                    )

        # I_c: active packets stay inside their frame.
        self.report.checks_run["I_c"] += 1
        for packet in active:
            set_index = router.set_of[packet.packet_id]
            level = net.level(packet.node)
            if not geometry.in_frame(set_index, phase, level):
                self._record(
                    "I_c",
                    t,
                    f"packet {packet.packet_id} (set {set_index}) at level "
                    f"{level}, frame spans "
                    f"{list(geometry.frame_levels(set_index, phase))}",
                )

        # I_d: different frontier-sets never meet at a node.
        self.report.checks_run["I_d"] += 1
        sets_at_node: Dict[int, int] = {}
        for packet in active:
            set_index = router.set_of[packet.packet_id]
            previous = sets_at_node.setdefault(packet.node, set_index)
            if previous != set_index:
                self._record(
                    "I_d",
                    t,
                    f"sets {previous} and {set_index} meet at node "
                    f"{packet.node}",
                )

        # I_e: per-set current congestion.  Two sub-checks: the paper's bound
        # (Lemma 2.2 event, probabilistic, only if a bound is configured) and
        # congestion conservation against C_i^0 (Lemma 4.10, deterministic
        # given safe deflections).
        if t % self.check_congestion_every == 0:
            self.report.checks_run["I_e"] += 1
            edge_lists = []
            set_list = []
            for packet in engine.packets:
                if packet.is_absorbed:
                    continue
                edge_lists.append(packet.current_path_edges())
                set_list.append(router.set_of[packet.packet_id])
            congestions = per_set_congestion(
                edge_lists, set_list, router.params.num_sets, net.num_edges
            )
            if self._initial_set_congestions is None:
                # First scan: C_i^0 of the preselected paths (all packets,
                # active or not, per Section 2.4).
                initial_lists = [spec.path.edges for spec in engine.problem]
                initial_sets = [router.set_of[k] for k in range(len(initial_lists))]
                self._initial_set_congestions = per_set_congestion(
                    initial_lists,
                    initial_sets,
                    router.params.num_sets,
                    net.num_edges,
                )
            worst = max(congestions) if congestions else 0
            if worst > self.report.max_set_congestion_seen:
                self.report.max_set_congestion_seen = worst
            for set_index, value in enumerate(congestions):
                if value > self._initial_set_congestions[set_index]:
                    self._record(
                        "I_e_conservation",
                        t,
                        f"set {set_index} congestion grew to {value} from "
                        f"C_i^0 = {self._initial_set_congestions[set_index]}",
                    )
                if (
                    self.congestion_bound is not None
                    and value > self.congestion_bound
                ):
                    self._record(
                        "I_e",
                        t,
                        f"set {set_index} congestion {value} exceeds bound "
                        f"{self.congestion_bound:.2f}",
                    )

        # I_f: at phase end the last three inner levels are empty.
        if clock.is_phase_end(t):
            self.report.checks_run["I_f"] += 1
            for packet in active:
                set_index = router.set_of[packet.packet_id]
                inner = geometry.inner_level(
                    set_index, phase, net.level(packet.node)
                )
                if inner > geometry.m - 4:
                    self._record(
                        "I_f",
                        t,
                        f"packet {packet.packet_id} (set {set_index}) ends "
                        f"phase {phase} at inner-level {inner} > m-4 = "
                        f"{geometry.m - 4}",
                    )


def audited_run(
    engine: Engine,
    auditor: Optional[InvariantAuditor] = None,
    max_steps: Optional[int] = None,
):
    """Convenience: install an auditor, run, return ``(result, report)``.

    The router must be a :class:`FrontierFrameRouter`; ``max_steps``
    defaults to the parameterization's full schedule.
    """
    router = engine.router
    if not isinstance(router, FrontierFrameRouter):
        raise TypeError("audited_run requires a FrontierFrameRouter engine")
    if auditor is None:
        auditor = InvariantAuditor(router)
    auditor.install(engine)
    budget = max_steps if max_steps is not None else router.params.total_steps
    result = engine.run(budget)
    return result, auditor.report
