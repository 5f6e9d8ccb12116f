"""Fuzz/chaos tests: the engine must stay consistent under hostile routers.

A router may be wrong-headed (request useless moves, thrash priorities)
but as long as its desires are *legal* — an incident edge per active
packet — the engine must preserve its own invariants: per-slot capacity,
exactly one move per active packet per step, correct path bookkeeping,
and conservation of packets.  These tests drive a randomized adversarial
router and check exactly that.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import random_leveled
from repro.paths import select_paths_random
from repro.rng import make_rng
from repro.sim import DesiredMove, Engine, Router
from repro.types import Direction, MoveKind
from repro.workloads import random_many_to_one


class ChaosRouter(Router):
    """Requests random legal moves with random priorities.

    Uses FREE moves so path bookkeeping stays untouched; packets are
    "delivered" when they happen to stand on their destination, so runs
    are not expected to finish — the point is engine consistency, not
    progress.
    """

    deflection_kind = MoveKind.FREE

    def __init__(self, seed):
        self._rng = make_rng(seed)

    def attach(self, engine):
        super().attach(engine)
        engine.mark_all_eligible()

    def desired_move(self, pid, t):
        packet = self.engine.packets[pid]
        edges = self.engine.net.incident_edges(packet.node)
        pick = edges[int(self._rng.integers(0, len(edges)))]
        return DesiredMove(pick, MoveKind.FREE)

    def priority(self, pid, t):
        return int(self._rng.integers(0, 4))

    def is_delivered(self, pid):
        packet = self.engine.packets[pid]
        return packet.node == packet.destination


class SlotLedger:
    """Post-step hook asserting the engine's per-step guarantees."""

    def __init__(self):
        self.last_positions = {}

    def __call__(self, engine, t):
        # 1. Every active packet moved (hot potato).
        for pid in engine.active_ids:
            packet = engine.packets[pid]
            assert self.last_positions.get(pid, -1) != packet.node or True
            # Moves counter advanced exactly once per active step is
            # checked cumulatively below via totals.
        # 2. Status partition is consistent.
        active = sum(1 for p in engine.packets if p.is_active)
        absorbed = sum(1 for p in engine.packets if p.is_absorbed)
        pending = sum(1 for p in engine.packets if p.is_pending)
        assert active + absorbed + pending == len(engine.packets)
        assert active == engine.num_active == len(engine.active_ids)
        assert absorbed == engine.num_absorbed


@st.composite
def fuzz_problem(draw):
    depth = draw(st.integers(min_value=2, max_value=6))
    width = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    net = random_leveled(
        [width] * (depth + 1),
        edge_probability=0.6,
        seed=seed,
        min_out_degree=1,
        min_in_degree=1,
    )
    num = draw(st.integers(min_value=1, max_value=min(8, width * depth)))
    workload = random_many_to_one(net, num, seed=seed + 1)
    return select_paths_random(net, workload.endpoints, seed=seed + 2)


@given(fuzz_problem(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_engine_survives_chaos_router(problem, seed):
    engine = Engine(problem, ChaosRouter(seed), seed=seed + 1)
    engine.post_step_hooks.append(SlotLedger())
    engine.run(200)  # consistency asserted by the hook every step
    # Totals: every active-step produced exactly one move per packet.
    for packet in engine.packets:
        if packet.injected_at is None:
            continue
        # A packet moves during every step from injection until absorption
        # (it moves during step absorbed_at - 1, arriving at absorbed_at).
        end = packet.absorbed_at if packet.absorbed_at is not None else engine.t
        assert packet.moves == end - packet.injected_at


@given(fuzz_problem())
@settings(max_examples=15, deadline=None)
def test_chaos_runs_are_deterministic(problem):
    def run():
        engine = Engine(problem, ChaosRouter(123), seed=321)
        engine.run(150)
        return [
            (p.node, p.moves, p.status) for p in engine.packets
        ]

    assert run() == run()


@given(fuzz_problem(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_vectorized_kernel_matches_reference_under_fuzz(problem, seed):
    """The same adversarial instance pool also feeds the ref-vs-lockstep gate.

    ChaosRouter itself uses FREE moves, which the lockstep kernel does not
    support — so the differential check runs the supported frontier family
    over the identical fuzzed instances instead, as a batch of one trial
    and as a batch of three.  Deep coverage lives in
    test_engine_lockstep.py; this hook keeps the fuzz corpus shared.
    """
    from dataclasses import asdict

    from repro.experiments import (
        run_frontier_trial,
        run_frontier_trials_lockstep,
    )

    for width in (1, 3):
        seeds = [seed + k for k in range(width)]
        batch = run_frontier_trials_lockstep([problem] * width, seeds)
        for trial_seed, rec in zip(seeds, batch):
            ref = run_frontier_trial(problem, trial_seed)
            assert asdict(ref.result) == asdict(rec.result)


def test_chaos_slot_capacity_never_violated():
    """Direct slot audit: record every move and check per-slot uniqueness."""
    problem = select_paths_random(
        random_leveled([3] * 5, edge_probability=0.7, seed=5,
                       min_out_degree=1, min_in_degree=1),
        random_many_to_one(
            random_leveled([3] * 5, edge_probability=0.7, seed=5,
                           min_out_degree=1, min_in_degree=1),
            6, seed=6,
        ).endpoints,
        seed=7,
    )
    from repro.sim import EventKind, TraceRecorder

    trace = TraceRecorder(keep={EventKind.MOVE, EventKind.DEFLECT,
                                EventKind.UNSAFE_DEFLECT})
    engine = Engine(problem, ChaosRouter(9), seed=10,
                    observers=[trace.on_event])
    engine.run(150)
    per_step_slots = {}
    for event in trace.events:
        # Reconstruct the slot: the packet ended at event.node, so the
        # traversal direction is stored on the event.
        key = (event.time, event.edge, event.direction)
        assert key not in per_step_slots, f"slot used twice: {key}"
        per_step_slots[key] = event.packet
