"""Differential tests: the lockstep batch kernel vs. the reference engine.

The contract of :mod:`repro.sim.engine_lockstep` is byte-identity *per
trial*: a batch of T trials advanced in one set of stacked arrays must
produce, for every trial, exactly the ``RunResult`` the per-trial path
produces for that trial's seed — same delivery times, same deflection
counts, same makespans, regardless of how the other trials in the batch
behave (stragglers, early quiescence, mixed finish times).  These tests
fuzz that contract across batch widths and both kernel families (the
kernel entry points directly, since the executor only sends groups of
``LOCKSTEP_MIN_TRIALS`` or more), check the contended branches honest
runs never reach from a forced start state, and check the benchmark's
five cells at full width.  They then pin the executor-level
guarantees: grouping of homogeneous chunks, the width policy, peel-off of
trials needing per-trial machinery (telemetry, traces, audits, cache
hits), and byte-identical sweep shards with lockstep on or off —
including through a mid-shard kill and resume.
"""

from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.soa as soa_mod
from repro.baselines import NaivePathRouter
from repro.core import AlgorithmParams
from repro.experiments import (
    baseline_budget,
    butterfly_hotrow_instance,
    butterfly_hotrow_spec,
    butterfly_random_instance,
    butterfly_random_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
    run_frontier_trial,
    run_frontier_trials_lockstep,
    run_naive_trials_lockstep,
    run_router_trial,
    sweep_specs,
)
from repro.experiments.batch import (
    LOCKSTEP_MAX_TRIALS,
    LOCKSTEP_MIN_TRIALS,
    TrialExecutor,
    run_spec_trials,
)
from repro.net import LeveledNetworkBuilder, random_leveled
from repro.paths import PacketSpec, Path, RoutingProblem, select_paths_random
from repro.scenarios import RunSpec
from repro.sim import (
    Engine,
    PacketStatus,
    VectorBackendUnavailable,
    numpy_available,
)
from repro.sim.engine_lockstep import LockstepEngine
from repro.sweeps import (
    SweepHeartbeat,
    SweepManifest,
    open_store,
    run_sweep,
)
from repro.telemetry import TelemetrySession
from repro.workloads import random_many_to_one

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="lockstep backend requires numpy"
)

#: The widths the issue pins: singleton, pair, odd straggler-prone width,
#: and the executor's full batch width.
WIDTHS = [1, 2, 17, 64]


def base_spec(seed: int = 11, backend: str = "frontier") -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend=backend,
        seed=seed,
    )


def assert_results_identical(ref, got, label=""):
    """Field-by-field RunResult comparison with a readable failure."""
    ref_d, got_d = asdict(ref), asdict(got)
    diff = {k: (ref_d[k], got_d[k]) for k in ref_d if ref_d[k] != got_d[k]}
    assert not diff, f"serial/lockstep RunResult mismatch {label}: {diff}"


@st.composite
def lockstep_instance(draw):
    """Random leveled instance, mirroring test_engine_fuzz.fuzz_instance."""
    depth = draw(st.integers(min_value=2, max_value=5))
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


# ------------------------------------------------- fuzz: kernel byte-identity


@needs_numpy
@pytest.mark.parametrize("width", WIDTHS)
def test_frontier_lockstep_matches_serial_across_widths(width):
    problem = butterfly_random_instance(4, seed=7)
    seeds = list(range(width))
    batch = run_frontier_trials_lockstep(problem, seeds)
    assert [rec.seed for rec in batch] == seeds
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@needs_numpy
@pytest.mark.parametrize("width", WIDTHS)
def test_naive_lockstep_matches_serial_across_widths(width):
    problem = butterfly_random_instance(3, seed=5)
    budget = baseline_budget(problem)
    seeds = list(range(width))
    batch = run_naive_trials_lockstep(problem, seeds, budget)
    for seed, result in zip(seeds, batch):
        ref = run_router_trial(
            problem, lambda _s: NaivePathRouter(), seed, budget
        )
        assert_results_identical(ref, result, f"(seed {seed})")


@needs_numpy
@given(
    lockstep_instance(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_frontier_lockstep_fuzz(problem, width, seed0, fast_forward):
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        problem, seeds, fast_forward=fast_forward
    )
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed, fast_forward=fast_forward)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@needs_numpy
@given(
    lockstep_instance(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=25, deadline=None)
def test_frontier_lockstep_fuzz_under_tight_budget(
    problem, width, seed0, fast_forward, max_steps
):
    """Budgets short enough to cut trials off mid-schedule: undelivered
    packets and the final step count must match the reference too."""
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        problem, seeds, fast_forward=fast_forward, max_steps=max_steps
    )
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(
            problem, seed, fast_forward=fast_forward, max_steps=max_steps
        )
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@needs_numpy
@given(
    lockstep_instance(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_naive_lockstep_fuzz(problem, width, seed0):
    seeds = [seed0 + k for k in range(width)]
    batch = run_naive_trials_lockstep(problem, seeds, 20000)
    for seed, result in zip(seeds, batch):
        ref = run_router_trial(
            problem, lambda _s: NaivePathRouter(), seed, 20000
        )
        assert_results_identical(ref, result, f"(seed {seed})")


@needs_numpy
def test_condition_sets_lockstep_identical():
    problem = butterfly_random_instance(4, seed=99)
    seeds = [0, 5, 42]
    batch = run_frontier_trials_lockstep(problem, seeds, condition_sets=True)
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed, condition_sets=True)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@needs_numpy
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_condition_sets_single_trial_identical(seed):
    """A one-trial batch with resampled condition sets, with and without
    fast-forward, against the reference engine."""
    problem = butterfly_random_instance(4, seed=99)
    for fast_forward in (True, False):
        (rec,) = run_frontier_trials_lockstep(
            problem, [seed], condition_sets=True, fast_forward=fast_forward
        )
        ref = run_frontier_trial(
            problem, seed, condition_sets=True, fast_forward=fast_forward
        )
        assert_results_identical(
            ref.result, rec.result, f"(fast_forward {fast_forward})"
        )


@needs_numpy
def test_naive_lockstep_under_deflection():
    """Hot-row contention forces the naive baseline to deflect, so the
    contended arbitration and deflection moves are checked against the
    reference engine, not only the conflict-free fast path."""
    problem = butterfly_hotrow_instance(5, 24, seed=3)
    seeds = [9, 10, 11]
    batch = run_naive_trials_lockstep(problem, seeds, 20000)
    for seed, result in zip(seeds, batch):
        ref = run_router_trial(
            problem, lambda _s: NaivePathRouter(), seed, 20000
        )
        assert_results_identical(ref, result, f"(seed {seed})")
    # the fixture must actually exercise the deflection path
    assert any(d for result in batch for d in result.deflections_per_packet)


def _fork_problem():
    """``s`` (level 0) forks to ``t1``/``t2``, which both feed ``d``.

    Packets 0 and 1 route ``s -> t1 -> d``, packet 2 ``s -> t2 -> d`` and
    packet 3 ``t2 -> d``; three share source ``s``.
    """
    builder = LeveledNetworkBuilder("fork")
    s = builder.add_node(0, "s")
    t1 = builder.add_node(1, "t1")
    t2 = builder.add_node(1, "t2")
    d = builder.add_node(2, "d")
    e1, e2 = builder.add_edge(s, t1), builder.add_edge(s, t2)
    f1, f2 = builder.add_edge(t1, d), builder.add_edge(t2, d)
    net = builder.build()
    routes = [(s, [e1, f1]), (s, [e1, f1]), (s, [e2, f2]), (t2, [f2])]
    specs = [
        PacketSpec(pid, src, d, Path(net, edges))
        for pid, (src, edges) in enumerate(routes)
    ]
    return RoutingProblem(net, specs, allow_multi_source=True), (s, t1, e1)


def _activate(ref, lock, trial, pid, node, detour=(), consumed=0):
    """Force ``pid`` ACTIVE at ``node`` in the reference engine ``ref`` and
    in row ``trial`` of ``lock``, identically: ``consumed`` path edges
    dropped from the front, then ``detour`` edges put in front."""
    packet = ref.packets[pid]
    for _ in range(consumed):
        packet.path.popleft()
    for edge in reversed(detour):
        packet.path.appendleft(edge)
    packet.status = PacketStatus.ACTIVE
    packet.injected_at = 0
    packet.node = node
    ref.num_active += 1
    ref.active_ids[pid] = None
    ref.eligible.discard(pid)

    soa = lock.soa
    cursor = soa.cursor[trial, pid] + consumed - len(detour)
    soa.path_buf[trial, pid, cursor:cursor + len(detour)] = detour
    soa.cursor[trial, pid] = cursor
    soa.status[trial, pid] = int(PacketStatus.ACTIVE)
    soa.injected_at[trial, pid] = 0
    soa.node[trial, pid] = node
    lock.elig_mask[trial, pid] = False
    lock.elig_cnt[trial] -= 1
    lock.act_mat[trial, lock.act_cnt[trial]] = pid
    lock.act_cnt[trial] += 1
    lock.num_active[trial] += 1


@needs_numpy
def test_contended_rare_branches_match_reference(monkeypatch):
    """The contended branches honest runs never reach, at width 8.

    Lemma 2.1 keeps a safe backward slot free for every loser, so from a
    clean start the kernels never deflect unsafely, never revoke an
    injection grant, and never run a deflected packet off the front of
    its path buffer.  This test forces packets 0 and 1 ACTIVE at the
    level-0 fork ``s`` in trials 0-3 (the same state in both engines),
    both wanting ``s -> t1`` with a two-edge detour in front, which fills
    the path buffer.  The loser has no in-edges and the other out-edge is
    granted to pending packet 2, so the grant is revoked, the loser is
    deflected forward (unsafe) and its push grows the buffer. Trials 4-7
    start packet 1 at ``t1`` instead and stay conflict-free, injecting in
    the same tick as the conflicted trials.  Counters confirm each branch
    fired; every trial must equal its reference run.
    """
    problem, (s, t1, e1) = _fork_problem()
    seeds = list(range(8))
    refs = [Engine(problem, NaivePathRouter(), seed=seed) for seed in seeds]
    lock = LockstepEngine.naive(problem, engine_seeds=seeds)
    assert lock.soa.width == 4  # longest path (2) + front slack (2)
    for trial, ref in enumerate(refs):
        if trial < 4:
            for pid in (0, 1):
                _activate(ref, lock, trial, pid, s, detour=(e1, e1))
        else:
            _activate(ref, lock, trial, 1, t1, consumed=1)

    fired = Counter()
    conflicted = set()
    arbitrate = LockstepEngine._arbitrate
    match = LockstepEngine._match_deflections
    apply_winners = LockstepEngine._apply_winners
    apply_deflections = LockstepEngine._apply_deflections

    def spy_arbitrate(self, conf_rows, *args):
        conflicted.update(conf_rows.tolist())
        return arbitrate(self, conf_rows, *args)

    def spy_match(self, *args):
        out = match(self, *args)
        fired["revocation"] += out[2] is not None
        return out

    def spy_winners(self, tid, pid, nodes, edges, backward, wait_at,
                    is_elig, occupants):
        injecting = set(tid[is_elig].tolist())
        fired["mixed_injection"] += bool(
            injecting & conflicted and injecting - conflicted
        )
        conflicted.clear()
        apply_winners(self, tid, pid, nodes, edges, backward, wait_at,
                      is_elig, occupants)

    def spy_deflections(self, tid, pid, edges, unsafe):
        width = self.soa.width
        fired["unsafe"] += bool(unsafe.any())
        apply_deflections(self, tid, pid, edges, unsafe)
        fired["grow_front"] += self.soa.width > width

    monkeypatch.setattr(LockstepEngine, "_arbitrate", spy_arbitrate)
    monkeypatch.setattr(LockstepEngine, "_match_deflections", spy_match)
    monkeypatch.setattr(LockstepEngine, "_apply_winners", spy_winners)
    monkeypatch.setattr(
        LockstepEngine, "_apply_deflections", spy_deflections
    )
    results = lock.run(100)
    for trial, ref in enumerate(refs):
        assert_results_identical(ref.run(100), results[trial], f"({trial})")
    for branch in ("revocation", "unsafe", "grow_front", "mixed_injection"):
        assert fired[branch], f"branch {branch!r} never fired"
    assert all(r.unsafe_deflections for r in results[:4])
    assert all(r.delivered == problem.num_packets for r in results)


#: The five fixed-problem instances of the repo benchmark's sweep workloads.
BENCH_CELLS = {
    "deep_random": lambda: deep_random_spec(20, 6, 12),
    "butterfly_random": lambda: butterfly_random_spec(6),
    "butterfly_hotrow": lambda: butterfly_hotrow_spec(5, 32),
    "mesh_corner_shift": lambda: mesh_corner_shift_spec(6),
    "naive_hotrow": lambda: butterfly_hotrow_spec(5, 32, backend="naive"),
}


@needs_numpy
@pytest.mark.parametrize("cell", sorted(BENCH_CELLS))
def test_benchmark_cells_width_64_identical(cell):
    """64 seeds of each benchmark cell, one lockstep batch, against the
    reference engine trial by trial; the hot-row cells arbitrate and
    deflect on most steps."""
    specs = sweep_specs(BENCH_CELLS[cell](), 64)
    batch = TrialExecutor().run_chunk(specs)
    assert {r.executor for r in batch} == {"lockstep[w=64]"}
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, batch):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
    if cell.endswith("hotrow"):
        assert sum(sum(r.result.deflections_per_packet) for r in batch)


def test_lockstep_unavailable_raises_actionable_error(monkeypatch):
    """Without numpy the kernel refuses with an actionable message."""
    monkeypatch.setattr(soa_mod, "NUMPY_AVAILABLE", False)
    problem = butterfly_random_instance(3, seed=1)
    params = AlgorithmParams.practical(
        max(1, problem.congestion), problem.net.depth, problem.num_packets
    )
    with pytest.raises(VectorBackendUnavailable) as excinfo:
        LockstepEngine.frontier(
            problem, params, router_seeds=[1], engine_seeds=[2]
        )
    message = str(excinfo.value)
    assert "requires numpy" in message
    assert "lockstep=False" in message


def test_executor_runs_per_trial_without_numpy(monkeypatch):
    """Without numpy the executor runs would-be lockstep groups on the
    reference engine instead of raising."""
    monkeypatch.setattr(soa_mod, "NUMPY_AVAILABLE", False)
    for backend in ("frontier", "naive"):
        specs = sweep_specs(base_spec(backend=backend), LOCKSTEP_MIN_TRIALS)
        records = TrialExecutor().run_chunk(specs)
        assert [r.executor for r in records] == [""] * LOCKSTEP_MIN_TRIALS
        refs = TrialExecutor(lockstep=False).run_chunk(specs)
        for ref, got in zip(refs, records):
            assert_results_identical(
                ref.result, got.result, f"({backend}, {got.spec.seed})"
            )


@needs_numpy
def test_straggler_trials_do_not_perturb_the_batch():
    """Hot-row contention makes finish times diverge across seeds, so
    trials quiesce and drop out of the stacked arrays mid-batch; every
    remaining trial must still replay its serial draws exactly."""
    problem = butterfly_hotrow_instance(5, 24, seed=3)
    seeds = list(range(17))
    batch = run_frontier_trials_lockstep(problem, seeds)
    makespans = {rec.result.makespan for rec in batch}
    assert len(makespans) > 1, "fixture no longer produces stragglers"
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


# ------------------------------------------------ executor: grouping/peel-off


@needs_numpy
def test_executor_groups_homogeneous_chunks():
    specs = sweep_specs(base_spec(), 10)
    lockstep = TrialExecutor()
    records = lockstep.run_chunk(specs)
    assert [r.spec for r in records] == specs
    assert all(r.executor == "lockstep[w=10]" for r in records)
    serial = TrialExecutor(lockstep=False)
    for ref, got in zip(serial.run_chunk(specs), records):
        assert ref.executor == ""
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_executor_caps_group_width():
    specs = sweep_specs(base_spec(), LOCKSTEP_MAX_TRIALS + LOCKSTEP_MIN_TRIALS)
    records = TrialExecutor().run_chunk(specs)
    widths = {r.executor for r in records}
    assert widths == {
        f"lockstep[w={LOCKSTEP_MAX_TRIALS}]",
        f"lockstep[w={LOCKSTEP_MIN_TRIALS}]",
    }


@needs_numpy
@pytest.mark.parametrize(
    "width, tag",
    [
        (LOCKSTEP_MIN_TRIALS - 1, ""),
        (LOCKSTEP_MIN_TRIALS, f"lockstep[w={LOCKSTEP_MIN_TRIALS}]"),
    ],
)
def test_executor_width_threshold(width, tag):
    """Groups narrower than LOCKSTEP_MIN_TRIALS run per trial on the
    reference engine; from the threshold up they lockstep.  Either way
    the records equal the lockstep=False path byte for byte."""
    specs = sweep_specs(base_spec(), width)
    records = TrialExecutor().run_chunk(specs)
    assert [r.executor for r in records] == [tag] * width
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_executor_mixed_chunk_preserves_order_and_identity():
    """Ineligible specs interleaved with a homogeneous run split the chunk:
    the frontier run locksteps, the naive spec and the different-scenario
    spec fall through to the per-trial path (groups of one), and record
    order is spec order throughout."""
    width = LOCKSTEP_MIN_TRIALS
    frontier = sweep_specs(base_spec(), 2 * width)
    other = base_spec(seed=77).with_pinned_scenario()
    naive = base_spec(seed=23, backend="naive").with_pinned_scenario()
    specs = frontier[:width] + [naive] + frontier[width:] + [other]
    records = TrialExecutor().run_chunk(specs)
    assert [r.spec for r in records] == specs
    tags = [r.executor for r in records]
    group = [f"lockstep[w={width}]"] * width
    assert tags == group + [""] + group + [""]
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
@pytest.mark.parametrize(
    "backend, params",
    [("naive", {}), ("naive_vec", {}), ("naive", {"max_steps": 3})],
)
def test_executor_locksteps_naive_family(backend, params):
    """Pinned naive and naive_vec groups run the naive lockstep kernel under
    the spec's step budget: an explicit ``max_steps`` (tight enough here to
    leave packets undelivered), else ``baseline_budget``."""
    width = LOCKSTEP_MIN_TRIALS
    specs = [
        s.with_params(**params)
        for s in sweep_specs(base_spec(backend=backend), width)
    ]
    records = TrialExecutor().run_chunk(specs)
    assert [r.executor for r in records] == [f"lockstep[w={width}]"] * width
    if params:
        assert not any(r.result.all_delivered for r in records)
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert ref.executor == ""
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_telemetry_peels_off_to_per_trial_path():
    """Telemetry needs per-trial counter isolation, which the stacked
    kernel cannot provide: the executor must peel those trials off, and
    their counters must match the lockstep=False path exactly."""
    specs = sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    records = TrialExecutor(telemetry=True).run_chunk(specs)
    refs = TrialExecutor(lockstep=False, telemetry=True).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert got.executor == ""
        assert got.result.telemetry is not None
        assert got.result.telemetry == ref.result.telemetry
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_ambient_session_peels_off_and_traces_identically():
    """An ambient telemetry/trace session disables lockstep grouping (the
    stacked kernel carries no observers); the session must end up with the
    same counter stream as a per-trial run."""
    specs = sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    with TelemetrySession() as lockstep_session:
        records = TrialExecutor().run_chunk(specs)
    with TelemetrySession() as serial_session:
        refs = TrialExecutor(lockstep=False).run_chunk(specs)
    assert all(r.executor == "" for r in records)
    assert (
        lockstep_session.counters.to_dict()
        == serial_session.counters.to_dict()
    )
    for ref, got in zip(refs, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_audit_specs_peel_off():
    specs = [
        s.with_params(audit=True)
        for s in sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    ]
    records = TrialExecutor().run_chunk(specs)
    assert all(r.executor == "" for r in records)
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_cache_hits_peel_out_of_the_group(tmp_path):
    """Disk hits come back as cached records; only the misses lockstep,
    and the stored bytes match what the per-trial path would store."""
    width = LOCKSTEP_MIN_TRIALS
    specs = sweep_specs(base_spec(), 3 + width)
    primer = TrialExecutor(cache_root=tmp_path, lockstep=False)
    primed = [primer.run(s) for s in specs[:3]]
    records = TrialExecutor(cache_root=tmp_path).run_chunk(specs)
    assert [r.cached for r in records] == [True] * 3 + [False] * width
    assert [r.executor for r in records] == (
        [""] * 3 + [f"lockstep[w={width}]"] * width
    )
    for ref, got in zip(primed, records[:3]):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
    # A second pass hits the results the lockstep group stored back.
    replay = TrialExecutor(cache_root=tmp_path, lockstep=False).run_chunk(specs)
    assert all(r.cached for r in replay)
    for ref, got in zip(replay, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_width_threshold_counts_cache_misses(tmp_path):
    """A wide group whose disk misses fall below LOCKSTEP_MIN_TRIALS (a
    resumed cached sweep) runs those misses per trial, not at a narrow
    lockstep width, and stores them exactly as the per-trial path would."""
    width = LOCKSTEP_MIN_TRIALS
    specs = sweep_specs(base_spec(), 2 * width)
    primer = TrialExecutor(cache_root=tmp_path, lockstep=False)
    for spec in specs[1:width + 2]:
        primer.run(spec)
    records = TrialExecutor(cache_root=tmp_path).run_chunk(specs)
    misses = [r for r in records if not r.cached]
    assert len(misses) == width - 1
    assert all(r.executor == "" for r in records)
    replay = TrialExecutor(cache_root=tmp_path, lockstep=False).run_chunk(specs)
    assert all(r.cached for r in replay)
    for ref, got in zip(replay, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@needs_numpy
def test_run_spec_trials_batched_lockstep_toggle_identical():
    specs = sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS + 1)
    fast = run_spec_trials(specs, workers=1)
    slow = run_spec_trials(specs, workers=1, lockstep=False)
    assert all(r.executor.startswith("lockstep[") for r in fast)
    for ref, got in zip(slow, fast):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


# --------------------------------------------------- sweeps: shard identity


#: Two trials land before the simulated kill, so shards of this size leave
#: a resumed suffix of exactly LOCKSTEP_MIN_TRIALS: lockstep still runs it.
SHARD_SIZE = LOCKSTEP_MIN_TRIALS + 2
#: One full shard plus a ragged last shard that still reaches the threshold.
SWEEP_TRIALS = SHARD_SIZE + LOCKSTEP_MIN_TRIALS + 1


def counting_heartbeat(sink=None):
    """A heartbeat that beats on every trial (sink None: count only)."""
    return SweepHeartbeat(sink, total=SWEEP_TRIALS, interval_sec=0.0)


@needs_numpy
class TestSweepShardIdentity:
    @pytest.fixture
    def manifest(self):
        return SweepManifest.from_base(
            base_spec(), num_trials=SWEEP_TRIALS, shard_size=SHARD_SIZE
        )

    def test_lockstep_shards_byte_identical_to_serial(
        self, manifest, tmp_path
    ):
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        lockstep = open_store(tmp_path / "lockstep", manifest)
        heartbeat = counting_heartbeat()
        run_sweep(manifest, lockstep, heartbeat=heartbeat, compact=False)
        assert heartbeat.lockstep_trials == SWEEP_TRIALS
        for shard in manifest.shard_ids():
            assert lockstep.shard_bytes(shard) == serial.shard_bytes(shard)

    def test_kill_resume_lockstep_matches_serial_shards(
        self, manifest, tmp_path
    ):
        """A killed lockstep sweep resumes mid-shard and must still emit
        the exact bytes of an uninterrupted serial (lockstep=False) run —
        the resume point lands inside what would have been one batch, and
        the resumed suffix still runs on the lockstep kernel."""
        reference = open_store(tmp_path / "ref", manifest)
        run_sweep(manifest, reference, compact=False, lockstep=False)
        ref_bytes = [
            reference.shard_bytes(s) for s in manifest.shard_ids()
        ]

        victim = open_store(tmp_path / "victim", manifest)
        executor = TrialExecutor()
        with victim.writer(0) as writer:
            for spec in manifest.shard_specs(0)[:2]:
                writer.append(
                    spec.seed, spec.content_hash(),
                    executor.run(spec).result,
                )
        with open(victim.part_path(0), "ab") as fh:
            fh.write(b'{"kind":"sweep_record","index":2')
        heartbeat = counting_heartbeat()
        outcome = run_sweep(
            manifest, victim, resume=True, heartbeat=heartbeat, compact=False
        )
        assert outcome.complete
        assert outcome.trials_resumed == 2
        assert heartbeat.lockstep_trials == SWEEP_TRIALS - 2
        assert [
            victim.shard_bytes(s) for s in manifest.shard_ids()
        ] == ref_bytes

    def test_heartbeat_reports_lockstep_width(self, manifest, tmp_path):
        beats = []
        store = open_store(tmp_path / "s", manifest)
        run_sweep(
            manifest, store, heartbeat=counting_heartbeat(beats.append),
            compact=False,
        )
        final = beats[-1]
        assert final["final"] is True
        assert final["lockstep_trials"] == SWEEP_TRIALS
        tail = SWEEP_TRIALS - SHARD_SIZE
        assert final["executor"] == f"lockstep[w={tail}]"

    def test_heartbeat_reports_per_trial_when_lockstep_off(
        self, manifest, tmp_path
    ):
        beats = []
        store = open_store(tmp_path / "s", manifest)
        run_sweep(
            manifest, store, heartbeat=counting_heartbeat(beats.append),
            compact=False, lockstep=False,
        )
        final = beats[-1]
        assert final["lockstep_trials"] == 0
        assert final["executor"] == "per-trial"

    def test_unpinned_sweep_runs_per_trial(self, tmp_path):
        """Every trial of an unpinned manifest routes its own instance, so
        each group has width 1 and the executor never calls lockstep."""
        manifest = SweepManifest.from_base(
            base_spec(), num_trials=SHARD_SIZE, shard_size=SHARD_SIZE, pin=False
        )
        beats = []
        store = open_store(tmp_path / "unpinned", manifest)
        run_sweep(
            manifest, store, heartbeat=counting_heartbeat(beats.append),
            compact=False,
        )
        assert beats[-1]["lockstep_trials"] == 0
        assert beats[-1]["executor"] == "per-trial"
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        assert store.shard_bytes(0) == serial.shard_bytes(0)
