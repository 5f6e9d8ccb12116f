"""White-box tests proving the invariant auditor *detects* violations.

The honest runs never violate I_a–I_f (that is the reproduction result),
so these tests manufacture violations — teleporting packets out of their
frames, faking foreign-set meetings — and assert the auditor flags them.
A watchdog that cannot bark is no evidence of safety.  The lockstep
kernel's auditor gets one plant per invariant, made identically in the
stacked state and in the reference engine: it must flag each at the same
step with the same record.
"""

from collections import deque

import numpy as np
import pytest

from repro.core import (
    AlgorithmParams,
    FrontierFrameRouter,
    InvariantAuditor,
)
from repro.experiments import deep_random_spec
from repro.net import LeveledNetworkBuilder
from repro.paths import PacketSpec, Path, RoutingProblem
from repro.scenarios import build_problem
from repro.sim import Engine, PacketStatus


@pytest.fixture
def rig():
    problem = build_problem(deep_random_spec(20, 6, 10, seed=55))
    params = AlgorithmParams.practical(
        problem.congestion, problem.net.depth, problem.num_packets,
        m=6, w=36,
    )
    router = FrontierFrameRouter(params, seed=1)
    engine = Engine(problem, router, seed=2)
    auditor = InvariantAuditor(router)
    auditor.install(engine)
    # Run a few phases so packets are active.
    target = params.steps_per_phase * (params.m + 2)
    while engine.t < target and not engine.done:
        engine.step()
    assert engine.num_active > 0
    return engine, router, auditor


def first_active(engine):
    for pid in engine.active_ids:
        return pid, engine.packets[pid]
    raise AssertionError("no active packet")


class TestDetection:
    def test_i_c_detected_when_packet_leaves_frame(self, rig):
        engine, router, auditor = rig
        pid, packet = first_active(engine)
        # Teleport the packet to level 0, far behind any current frame.
        packet.node = engine.net.nodes_at_level(0)[0]
        auditor.post_step(engine, engine.t - 1)
        assert auditor.report.count("I_c") > 0

    def test_i_d_detected_when_sets_meet(self, rig):
        engine, router, auditor = rig
        pid, packet = first_active(engine)
        # Claim the packet belongs to a different frontier-set: it now
        # "meets" its own node-mates of the original set (fake a meeting
        # by duplicating its position onto another active packet).
        other = None
        for qid in engine.active_ids:
            if qid != pid:
                other = engine.packets[qid]
                break
        if other is None:
            pytest.skip("needs two active packets")
        router.set_of[pid] = (router.set_of[pid] + 1) % max(
            2, router.params.num_sets
        )
        other.node = packet.node
        auditor.post_step(engine, engine.t - 1)
        assert (
            auditor.report.count("I_d") > 0
            or auditor.report.count("I_c") > 0
        )

    def test_i_b_detected_on_invalid_path(self, rig):
        engine, router, auditor = rig
        pid, packet = first_active(engine)
        # Corrupt the current path: teleport without fixing the path head.
        packet.node = engine.net.other_endpoint(
            engine.net.incident_edges(packet.node)[0], packet.node
        )
        # The path may coincidentally still be valid from the new node if
        # we moved along the head edge; force invalidity by rotating.
        if packet.path:
            packet.path.rotate(1)
        auditor.post_step(engine, engine.t - 1)
        assert auditor.report.count("I_b") >= 0  # scan ran
        # With a rotated path the chain almost surely breaks:
        from repro.paths import is_valid_edge_sequence

        if not is_valid_edge_sequence(engine.net, packet.path, packet.node):
            assert auditor.report.count("I_b") > 0

    def test_i_f_detected_at_phase_end(self, rig):
        engine, router, auditor = rig
        pid, packet = first_active(engine)
        clock = router.clock
        # Move the packet to its frame's trailing inner level, then audit a
        # synthetic phase-end step.
        set_index = router.set_of[pid]
        phase = clock.phase(engine.t - 1)
        frame_levels = list(router.geometry.frame_levels(set_index, phase))
        trailing = frame_levels[0]  # lowest level = inner m-1 (if present)
        inner = router.geometry.inner_level(set_index, phase, trailing)
        if inner <= router.geometry.m - 4:
            pytest.skip("frame truncated by network boundary")
        packet.node = engine.net.nodes_at_level(trailing)[0]
        phase_end_step = clock.phase_start(phase + 1) - 1
        auditor.post_step(engine, phase_end_step)
        assert auditor.report.count("I_f") > 0

    def test_absorbed_packets_ignored(self, rig):
        engine, router, auditor = rig
        before = len(auditor.report.violations)
        for packet in engine.packets:
            if packet.is_absorbed:
                packet.node = 0  # garbage position on an absorbed packet
        auditor.post_step(engine, engine.t - 1)
        # No new violations caused by absorbed packets' positions.
        culprits = [
            v
            for v in auditor.report.violations[before:]
            if "absorbed" in v.detail
        ]
        assert not culprits


# ------------------------------------------------ the lockstep kernel's twin


@pytest.fixture
def twins():
    """The :func:`rig` run twice to the same step: on the reference engine
    under its auditor, and as a one-trial audited lockstep batch with the
    same seeds.  Both audit every step (no fast-forward)."""
    from repro.sim.engine_lockstep import LockstepEngine

    problem = build_problem(deep_random_spec(20, 6, 10, seed=55))
    params = AlgorithmParams.practical(
        problem.congestion, problem.net.depth, problem.num_packets,
        m=6, w=36,
    )
    router = FrontierFrameRouter(params, seed=1)
    engine = Engine(problem, router, seed=2, enable_fast_forward=False)
    auditor = InvariantAuditor(router)
    auditor.install(engine)
    lock = LockstepEngine.frontier(
        [problem], [params], router_seeds=[1], engine_seeds=[2],
        enable_fast_forward=False, audit=True,
    )
    target = params.steps_per_phase * (params.m + 2)
    engine.run(target)
    lock.run(target)
    assert engine.num_active > 0 and int(lock.t[0]) == engine.t
    assert lock.auditor.result(0) == auditor.report
    return engine, router, auditor, lock


def audit_both(twins, t):
    """The post-step scans of step ``t`` on both twins; returns the
    violations each recorded, as ``(invariant, time, detail)``."""
    engine, router, auditor, lock = twins
    before = len(auditor.report.violations)
    auditor.post_step(engine, t)
    lock.auditor.after_tick(lock, np.array([0]), np.array([t]))
    ref = auditor.report
    got = lock.auditor.result(0)
    assert got == ref
    return [(v.invariant, v.time, v.detail) for v in got.violations[before:]]


def move_both(twins, pid, node):
    """Teleport ``pid`` to ``node`` in both twins (paths untouched)."""
    engine, _, _, lock = twins
    engine.packets[pid].node = node
    lock.soa.node[0, pid] = node


def set_path_both(twins, pid, edges):
    """Replace ``pid``'s current path by ``edges`` in both twins."""
    engine, _, _, lock = twins
    engine.packets[pid].path = deque(edges)
    soa = lock.soa
    while soa.width < len(edges):
        soa.grow_front()
    soa.cursor[0, pid] = soa.width - len(edges)
    soa.path_buf[0, pid, soa.cursor[0, pid]:] = edges


class TestLockstepDetection:
    """Each plant of :class:`TestDetection`, made in both twins: the
    lockstep auditor flags it at the step the reference flags it, with
    the same record."""

    def test_i_c_frame_exit(self, twins):
        engine = twins[0]
        pid, _ = first_active(engine)
        move_both(twins, pid, engine.net.nodes_at_level(0)[0])
        found = audit_both(twins, engine.t - 1)
        assert ("I_c", engine.t - 1) in {f[:2] for f in found}

    def test_i_d_foreign_set_at_node(self, twins):
        engine, router, _, lock = twins
        pid, packet = first_active(engine)
        other = next(q for q in engine.active_ids if q != pid)
        foreign = (router.set_of[pid] + 1) % router.params.num_sets
        router.set_of[other] = foreign
        lock.fr.set_index[0, other] = foreign
        move_both(twins, other, packet.node)
        found = audit_both(twins, engine.t - 1)
        assert ("I_d", engine.t - 1) in {f[:2] for f in found}

    def test_i_b_broken_path_chain(self, twins):
        engine = twins[0]
        pid, packet = first_active(engine)
        edges = list(packet.path)
        assert len(edges) > 1
        set_path_both(twins, pid, edges[1:] + edges[:1])
        found = audit_both(twins, engine.t - 1)
        assert ("I_b", engine.t - 1) in {f[:2] for f in found}

    def test_i_e_congestion_growth(self, twins):
        engine, router, auditor, _ = twins
        pid, packet = first_active(engine)
        initial = auditor._initial_set_congestions[router.set_of[pid]]
        head = packet.path[0]
        set_path_both(twins, pid, [head] * (initial + 1) + list(packet.path))
        found = audit_both(twins, engine.t - 1)
        assert ("I_e_conservation", engine.t - 1) in {f[:2] for f in found}

    def test_i_f_trailing_levels_at_phase_end(self, twins):
        engine, router, _, _ = twins
        pid, _ = first_active(engine)
        clock = router.clock
        set_index = router.set_of[pid]
        phase = clock.phase(engine.t - 1)
        trailing = router.geometry.frame_levels(set_index, phase)[0]
        inner = router.geometry.inner_level(set_index, phase, trailing)
        if inner <= router.geometry.m - 4:
            pytest.skip("frame truncated by network boundary")
        move_both(twins, pid, engine.net.nodes_at_level(trailing)[0])
        phase_end_step = clock.phase_start(phase + 1) - 1
        found = audit_both(twins, phase_end_step)
        assert ("I_f", phase_end_step) in {f[:2] for f in found}

    def test_i_a_crowded_injection(self):
        """Two packets share a source and, by a forced set assignment, an
        injection phase, with different first edges: both inject in one
        step, neither in isolation."""
        from repro.sim.engine_lockstep import LockstepEngine

        builder = LeveledNetworkBuilder("fork")
        s = builder.add_node(0, "s")
        a, b = builder.add_node(1, "a"), builder.add_node(1, "b")
        d = builder.add_node(2, "d")
        sa, sb = builder.add_edge(s, a), builder.add_edge(s, b)
        ad, bd = builder.add_edge(a, d), builder.add_edge(b, d)
        net = builder.build()
        problem = RoutingProblem(
            net,
            [
                PacketSpec(0, s, d, Path(net, [sa, ad])),
                PacketSpec(1, s, d, Path(net, [sb, bd])),
            ],
            allow_multi_source=True,
        )
        params = AlgorithmParams.practical(1, net.depth, 2, m=5)
        router = FrontierFrameRouter(params, set_of=[0, 0], seed=1)
        engine = Engine(problem, router, seed=2)
        auditor = InvariantAuditor(router)
        auditor.install(engine)
        engine.run(params.total_steps)
        lock = LockstepEngine.frontier(
            [problem], [params], router_seeds=[1], engine_seeds=[2],
            set_rows=[[0, 0]], audit=True,
        )
        lock.run(params.total_steps)
        got = lock.auditor.result(0)
        assert got == auditor.report
        injected_at = (params.m - 1) * params.steps_per_phase
        assert [(v.invariant, v.time) for v in got.violations] == [
            ("I_a", injected_at),
            ("I_a", injected_at),
        ]
