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
five cells at full width.  With ``telemetry`` on, each trial's counters
must equal, byte for byte, the ones the reference run's
:class:`~repro.telemetry.Counters` observer builds from its event stream.
Batches may stack a different problem per trial over one network (an
instance sweep), each with its own frame schedule and budget.  They then
pin the executor-level guarantees: grouping of chunks over one network
(telemetered or not, pinned or unpinned), the width policy, the split at
packet-count changes, peel-off of trials needing per-trial machinery
(ambient traces, cache hits), and byte-identical sweep shards with
lockstep on or off — including through a mid-shard kill and resume.
Audited batches must return, per trial, the reference
:class:`~repro.core.InvariantAuditor`'s report field for field: on the
fuzz corpus, on experiment T3's battery, under an impossible congestion
bound, on the tuning benchmark's real failures and on a forced unsafe
state.
"""

import dataclasses
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.batch as batch_mod
import repro.sweeps.dispatch as dispatch_mod
from repro.baselines import NaivePathRouter
from repro.core import AlgorithmParams, FrontierFrameRouter, InvariantAuditor
from repro.experiments import (
    baseline_budget,
    butterfly_hotrow_spec,
    butterfly_random_spec,
    catalog_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
    mesh_monotone_spec,
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
from repro.errors import ReproError
from repro.net import LeveledNetworkBuilder, random_leveled
from repro.paths import (
    PacketSpec,
    Path,
    RoutingProblem,
    random_monotone_path,
    select_paths_random,
)
from repro.rng import make_rng, stable_hash_seed
from repro.scenarios import WORKLOADS, RunSpec, build_network, build_problem
from repro.sim import Engine, PacketStatus
from repro.sim.engine_lockstep import LockstepEngine
from repro.sweeps import (
    SweepHeartbeat,
    SweepManifest,
    open_store,
    run_sweep,
)
from repro.telemetry import TelemetrySession
from repro.tuning import TuningCandidate
from repro.workloads import random_many_to_one

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


def reference(run, telemetry):
    """``run()``'s result, with the counters a telemetry session's
    observer builds from its events attached when ``telemetry`` is on."""
    if not telemetry:
        return run()
    with TelemetrySession(timings=False) as session:
        result = run()
    session.finalize_result(result)
    return result


@st.composite
def lockstep_problem(draw):
    """Random leveled instance, mirroring test_engine_fuzz.fuzz_problem."""
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


@pytest.mark.parametrize("width", WIDTHS)
def test_frontier_lockstep_matches_serial_across_widths(width):
    problem = build_problem(butterfly_random_spec(4, seed=7))
    seeds = list(range(width))
    batch = run_frontier_trials_lockstep([problem] * len(seeds), seeds)
    assert [rec.seed for rec in batch] == seeds
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@pytest.mark.parametrize("width", WIDTHS)
def test_naive_lockstep_matches_serial_across_widths(width):
    problem = build_problem(butterfly_random_spec(3, seed=5))
    budget = baseline_budget(problem)
    seeds = list(range(width))
    batch = run_naive_trials_lockstep([problem] * len(seeds), seeds, budget)
    for seed, result in zip(seeds, batch):
        ref = run_router_trial(
            problem, lambda _s: NaivePathRouter(), seed, budget
        )
        assert_results_identical(ref, result, f"(seed {seed})")


@given(
    lockstep_problem(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_frontier_lockstep_fuzz(problem, width, seed0, fast_forward, telemetry):
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        [problem] * width, seeds, fast_forward=fast_forward,
        telemetry=telemetry,
    )
    for seed, rec in zip(seeds, batch):
        ref = reference(
            lambda: run_frontier_trial(
                problem, seed, fast_forward=fast_forward
            ).result,
            telemetry,
        )
        assert_results_identical(ref, rec.result, f"(seed {seed})")


@given(
    lockstep_problem(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.integers(min_value=1, max_value=60),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_frontier_lockstep_fuzz_under_tight_budget(
    problem, width, seed0, fast_forward, max_steps, telemetry
):
    """Budgets short enough to cut trials off mid-schedule: undelivered
    packets and the final step count must match the reference too."""
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        [problem] * width,
        seeds,
        fast_forward=fast_forward,
        max_steps=max_steps,
        telemetry=telemetry,
    )
    for seed, rec in zip(seeds, batch):
        ref = reference(
            lambda: run_frontier_trial(
                problem, seed, fast_forward=fast_forward, max_steps=max_steps
            ).result,
            telemetry,
        )
        assert_results_identical(ref, rec.result, f"(seed {seed})")


@given(
    lockstep_problem(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_naive_lockstep_fuzz(problem, width, seed0, telemetry):
    seeds = [seed0 + k for k in range(width)]
    batch = run_naive_trials_lockstep(
        [problem] * width, seeds, 20000, telemetry=telemetry
    )
    for seed, result in zip(seeds, batch):
        ref = reference(
            lambda: run_router_trial(
                problem, lambda _s: NaivePathRouter(), seed, 20000
            ),
            telemetry,
        )
        assert_results_identical(ref, result, f"(seed {seed})")


def test_condition_sets_lockstep_identical():
    problem = build_problem(butterfly_random_spec(4, seed=99))
    seeds = [0, 5, 42]
    batch = run_frontier_trials_lockstep(
        [problem] * len(seeds), seeds, condition_sets=True
    )
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed, condition_sets=True)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_condition_sets_single_trial_identical(seed):
    """A one-trial batch with resampled condition sets, with and without
    fast-forward, against the reference engine."""
    problem = build_problem(butterfly_random_spec(4, seed=99))
    for fast_forward in (True, False):
        (rec,) = run_frontier_trials_lockstep(
            [problem], [seed], condition_sets=True, fast_forward=fast_forward
        )
        ref = run_frontier_trial(
            problem, seed, condition_sets=True, fast_forward=fast_forward
        )
        assert_results_identical(
            ref.result, rec.result, f"(fast_forward {fast_forward})"
        )


def test_naive_lockstep_under_deflection():
    """Hot-row contention forces the naive baseline to deflect, so the
    contended arbitration and deflection moves are checked against the
    reference engine, not only the conflict-free fast path."""
    problem = build_problem(butterfly_hotrow_spec(5, 24, seed=3))
    seeds = [9, 10, 11]
    batch = run_naive_trials_lockstep([problem] * len(seeds), seeds, 20000)
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
    dropped from the front, then ``detour`` edges put in front.  In a
    batch over several networks, the row's ids are shifted into the
    union's."""
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
    node_off, edge_off = lock._node_off[trial], lock._edge_off[trial]
    cursor = soa.cursor[trial, pid] + consumed - len(detour)
    soa.path_buf[trial, pid, cursor:cursor + len(detour)] = [
        e + edge_off for e in detour
    ]
    soa.cursor[trial, pid] = cursor
    soa.status[trial, pid] = int(PacketStatus.ACTIVE)
    soa.injected_at[trial, pid] = 0
    soa.node[trial, pid] = node + node_off
    if lock.elig_mask[trial, pid]:
        lock.elig_mask[trial, pid] = False
        lock.elig_cnt[trial] -= 1
    lock.act_mat[trial, lock.act_cnt[trial]] = pid
    lock.act_cnt[trial] += 1
    lock.num_active[trial] += 1


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
    lock = LockstepEngine.naive([problem] * len(seeds), engine_seeds=seeds)
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

#: Instances and frame kwargs of the paper's experiments (benchmarks/),
#: which run their seeds through the executor: each cell is a combination
#: of frame parameters the benchmark cells above leave at their defaults.
EXPERIMENT_CELLS = {
    # T6: 60 pinned seeds per instance, m and w_factor set.
    "t6_butterfly_random": lambda: butterfly_random_spec(
        4, seed=51, m=8, w_factor=8.0
    ),
    # T1a: a per-set congestion target on a hot-row butterfly.
    "t1_hotrow_set_target": lambda: butterfly_hotrow_spec(
        5, 12, seed=11, m=8, w_factor=8.0, set_congestion_target=3.0
    ),
    # A1: a flooding excitation probability on random paths (A1 routes
    # the same family at L=28, N=16).
    "a1_excitation_flood": lambda: deep_random_spec(
        12, 6, 12, seed=71, low_congestion=False, m=8, w_factor=8.0, q=0.9
    ),
    # A3: over-split frontier sets, audited.
    "a3_oversplit_audited": lambda: butterfly_hotrow_spec(
        5, 24, seed=91, m=8, w_factor=8.0, set_congestion_target=1.0,
        oversplit=2.0, audit=True,
    ),
    # T3a: conditioned frontier sets under a congestion bound, audited.
    "t3_condition_sets_audited": lambda: deep_random_spec(
        20, 6, 12, seed=681516250, m=8, w_factor=8.0,
        set_congestion_target=3.0, condition_sets=True, audit=True,
        audit_congestion_bound=3.0,
    ),
}


@pytest.mark.parametrize("cell", sorted({**BENCH_CELLS, **EXPERIMENT_CELLS}))
def test_benchmark_cells_width_64_identical(cell):
    """64 seeds of each benchmark and experiment cell, one lockstep batch,
    against the reference engine trial by trial (audit reports included);
    the hot-row cells arbitrate and deflect on most steps."""
    spec = {**BENCH_CELLS, **EXPERIMENT_CELLS}[cell]()
    specs = sweep_specs(spec, 64)
    batch = TrialExecutor().run_chunk(specs)
    assert {r.executor for r in batch} == {"lockstep[w=64]"}
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, batch):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
        if spec.backend_params.get("audit"):
            assert_audits_identical(ref.audit, got.audit, f"({got.spec.seed})")
    if cell.endswith("hotrow"):
        assert sum(sum(r.result.deflections_per_packet) for r in batch)


def test_straggler_trials_do_not_perturb_the_batch():
    """Hot-row contention makes finish times diverge across seeds, so
    trials quiesce and drop out of the stacked arrays mid-batch; every
    remaining trial must still replay its serial draws exactly."""
    problem = build_problem(butterfly_hotrow_spec(5, 24, seed=3))
    seeds = list(range(17))
    batch = run_frontier_trials_lockstep([problem] * len(seeds), seeds)
    makespans = {rec.result.makespan for rec in batch}
    assert len(makespans) > 1, "fixture no longer produces stragglers"
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(problem, seed)
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")


def test_kernel_rejects_unequal_packet_counts_and_depths():
    """One batch stacks problems of one packet count over networks of one
    depth; anything else is refused before a step runs."""
    six, five = (
        dataclasses.replace(base_spec(), workload_params={"num_packets": n})
        for n in (6, 5)
    )
    net = build_network(six)
    problems = [build_problem(six, net=net), build_problem(five, net=net)]
    with pytest.raises(ReproError, match="equal packet counts"):
        LockstepEngine.naive(problems, engine_seeds=[1, 2])
    with pytest.raises(ReproError, match="equal packet counts"):
        run_frontier_trials_lockstep(problems, [1, 2])
    mesh = RunSpec(
        topology="mesh",
        topology_params={"rows": 3, "cols": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend="naive",
    )
    assert build_network(mesh).depth != net.depth
    with pytest.raises(ReproError, match="equal depth"):
        LockstepEngine.naive(
            [problems[0], build_problem(mesh)], engine_seeds=[1, 2]
        )


@pytest.mark.parametrize("fast_forward", [True, False])
def test_kernel_runs_a_different_schedule_per_trial(fast_forward):
    """One batch over one butterfly whose trials differ in problem and in
    every frame parameter — ``num_sets``, ``m``, ``w``, ``q`` (0 draws no
    excitation coins) — and step budget: each trial equals the reference
    run of its own problem, parameters and seed."""
    specs = [base_spec().with_seed(seed) for seed in range(8)]
    net = build_network(specs[0])
    problems = [build_problem(spec, net=net) for spec in specs]
    params = [
        AlgorithmParams.practical(
            max(1, problem.congestion),
            problem.net.depth,
            problem.num_packets,
            m=6 + k % 3,
            w_factor=(1.0, 0.75)[k % 2],
            q=(None, 0.0, 0.5, 1.0)[k % 4],
        )
        for k, problem in enumerate(problems)
    ]
    assert len({(p.num_sets, p.m, p.w, p.q) for p in params}) == 8
    assert len({p.num_sets for p in params}) > 1
    seeds = list(range(100, 108))
    engine = LockstepEngine.frontier(
        problems,
        params,
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        enable_fast_forward=fast_forward,
    )
    results = engine.run([p.total_steps for p in params])
    for problem, prm, seed, got in zip(problems, params, seeds, results):
        ref = run_frontier_trial(
            problem, seed, params=prm, fast_forward=fast_forward
        )
        assert_results_identical(ref.result, got, f"(seed {seed})")


#: Instance-sweep cases over one network: ``(backend, backend params)``.
UNPINNED_CASES = {
    "frontier": ("frontier", {}),
    "frontier_no_fast_forward": ("frontier", {"fast_forward": False}),
    "condition_sets": ("frontier", {"condition_sets": True}),
    "naive": ("naive", {}),
    "naive_tight_budget": ("naive", {"max_steps": 4}),
}


@pytest.mark.parametrize("telemetry", [False, True])
@pytest.mark.parametrize("case", sorted(UNPINNED_CASES))
def test_unpinned_groups_match_reference_across_widths(
    case, telemetry, monkeypatch
):
    """Unpinned trials over one butterfly, each routing its own instance,
    at widths 1, 6, 32 and 64 through the executor (its width threshold
    lowered to 1 so a single trial locksteps): every trial's full
    RunResult, counters included, equals its per-trial reference.  The
    frontier groups mix instances of different congestion, so their
    trials run different frame schedules (``num_sets``) and budgets."""
    backend, params = UNPINNED_CASES[case]
    base = base_spec(backend=backend).with_params(**params)
    specs = [base.with_seed(seed) for seed in range(64)]
    assert len({s.scenario_hash() for s in specs}) == 64
    refs = TrialExecutor(lockstep=False, telemetry=telemetry).run_chunk(specs)
    monkeypatch.setattr(batch_mod, "LOCKSTEP_MIN_TRIALS", 1)
    for width in (1, 6, 32, 64):
        records = TrialExecutor(telemetry=telemetry).run_chunk(specs[:width])
        assert {r.executor for r in records} == {f"lockstep[w={width}]"}
        for ref, got in zip(refs, records):
            assert_results_identical(
                ref.result, got.result, f"(w={width}, {got.spec.seed})"
            )
    if backend == "frontier":
        num_sets = {r.result.extra["num_sets"] for r in refs[:6]}
        assert len(num_sets) >= 2, "fixture no longer mixes schedules"
    if "max_steps" in params:
        assert not all(r.result.all_delivered for r in refs)


def test_executor_splits_groups_at_packet_count_changes(monkeypatch):
    """A registered workload whose packet count depends on its seed: the
    executor cuts the group into runs of equal counts, in spec order,
    locksteps the runs of at least LOCKSTEP_MIN_TRIALS and runs the
    shorter one per trial; every record equals the per-trial path's."""
    width = LOCKSTEP_MIN_TRIALS
    counts = [6] * (width + 1) + [5] * 2 + [6] * width
    specs = [
        dataclasses.replace(
            base_spec(), workload="seeded_count", workload_params={}
        ).with_seed(k)
        for k in range(len(counts))
    ]
    by_seed = {s.workload_seed(): n for s, n in zip(specs, counts)}

    def seeded_count(net, *, seed=None):
        return random_many_to_one(net, by_seed[seed], seed=seed)

    monkeypatch.setitem(WORKLOADS._entries, "seeded_count", seeded_count)
    records = TrialExecutor().run_chunk(specs)
    assert [r.spec for r in records] == specs
    assert [r.result.num_packets for r in records] == counts
    assert [r.executor for r in records] == (
        [f"lockstep[w={width + 1}]"] * (width + 1)
        + [""] * 2
        + [f"lockstep[w={width}]"] * width
    )
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


# ------------------------------------------------- audits: vs the reference


def assert_audits_identical(ref, got, label=""):
    """Two :class:`~repro.core.AuditReport` s: equal violations (invariant,
    time and detail, in order), ``checks_run`` and congestion maximum."""
    assert got is not None and ref is not None, label
    assert got.summary() == ref.summary(), label
    assert [(v.invariant, v.time, v.detail) for v in got.violations] == [
        (v.invariant, v.time, v.detail) for v in ref.violations
    ], label
    assert dict(got.checks_run) == dict(ref.checks_run), label
    assert got == ref, label


#: Schedules for the audit fuzz: the default one, and the tighter
#: ``m = 5`` one of ``tune_audit``'s failing candidates.
AUDIT_SCHEDULES = [
    {},
    {"set_congestion_target": 3.0, "m": 5, "w_factor": 0.75, "q": 0.5},
]


@given(
    lockstep_problem(),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.sampled_from(range(len(AUDIT_SCHEDULES))),
    st.sampled_from([None, 0.0, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_frontier_lockstep_audit_fuzz(
    problem, width, seed0, fast_forward, schedule, bound
):
    """The fuzz corpus, fast-forward on and off, audited: each trial's
    report equals its reference run's, with or without an I_e bound."""
    params = AUDIT_SCHEDULES[schedule]
    seeds = [seed0 + k for k in range(width)]
    batch = run_frontier_trials_lockstep(
        [problem] * width, seeds, fast_forward=fast_forward, audit=True,
        audit_congestion_bound=bound, **params,
    )
    for seed, rec in zip(seeds, batch):
        ref = run_frontier_trial(
            problem, seed, fast_forward=fast_forward, audit=True,
            audit_congestion_bound=bound, **params,
        )
        assert_results_identical(ref.result, rec.result, f"(seed {seed})")
        assert_audits_identical(ref.audit, rec.audit, f"(seed {seed})")


@pytest.mark.parametrize("width", [1, 6, 64])
def test_audit_matches_reference_on_small_audit_suite(width):
    """Experiment T3's audit battery, one lockstep batch per problem."""
    for spec in (
        butterfly_random_spec(4, seed=64198558),
        butterfly_hotrow_spec(4, 8, seed=843888390),
        deep_random_spec(20, 6, 12, seed=681516250),
        mesh_monotone_spec(8, 16, seed=591816381),
    ):
        name, problem = spec.name, build_problem(spec)
        seeds = list(range(width))
        batch = run_frontier_trials_lockstep(
            [problem] * width, seeds, audit=True
        )
        for seed, rec in zip(seeds, batch):
            ref = run_frontier_trial(problem, seed, audit=True)
            assert_results_identical(ref.result, rec.result, f"({name})")
            assert_audits_identical(ref.audit, rec.audit, f"({name}, {seed})")
            assert rec.audit.ok


@pytest.mark.parametrize("bound", [0.0, -1.0])
def test_audit_reports_impossible_congestion_bound(bound):
    """A bound no set can meet: I_e fires on every audited step (at -1
    even for sets with no packets left), exactly as on the reference."""
    specs = [
        s.with_params(audit=True, audit_congestion_bound=bound)
        for s in sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    ]
    records = TrialExecutor().run_chunk(specs)
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert got.executor == f"lockstep[w={LOCKSTEP_MIN_TRIALS}]"
        assert_audits_identical(ref.audit, got.audit, f"({got.spec.seed})")
        assert got.audit.count("I_e") > 0
        assert got.audit.count("I_e_conservation") == 0


#: The portfolio failures of ``tune_audit`` (the repo benchmark's study):
#: ``(portfolio problem, candidate, {seed: summary})``.
TUNE_AUDIT_FAILURES = [
    (
        "mesh_corner_shift",
        TuningCandidate(
            set_congestion_target=3.0, m=5, w_factor=1.0, q=0.5,
            oversplit=1.0,
        ),
        {
            0: "1 violation(s): I_f:1",
            1: "1 violation(s): I_f:1",
            2: "5 violation(s): I_c:2, I_f:3",
        },
    ),
    (
        "butterfly_hotrow",
        TuningCandidate(
            set_congestion_target=3.0, m=5, w_factor=0.75, q=0.5,
            oversplit=1.0,
        ),
        {1: "1 violation(s): I_f:1", 2: "1 violation(s): I_f:1"},
    ),
]


@pytest.mark.parametrize("case", range(len(TUNE_AUDIT_FAILURES)))
def test_audit_batch_of_tuning_candidates_matches_reference(case):
    """The tuner's audit batch for one portfolio problem: every
    ``tune_audit`` candidate at seeds 0-2, one lockstep group of 27 trials
    with nine schedules, each trial resolving its own parameters.  Every
    report equals the reference's, including the real I_c/I_f failures."""
    name, failing, expected = TUNE_AUDIT_FAILURES[case]
    pinned = catalog_spec(name, seed=0).with_pinned_scenario()
    specs = [
        pinned.with_params(audit=True, **cand.params_kwargs()).with_seed(s)
        for cand in TUNE_AUDIT_CANDIDATES
        for s in range(3)
    ]
    records = TrialExecutor().run_chunk(specs)
    assert {r.executor for r in records} == {"lockstep[w=27]"}
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, records):
        label = f"({got.spec.backend_params}, {got.spec.seed})"
        assert_results_identical(ref.result, got.result, label)
        assert_audits_identical(ref.audit, got.audit, label)
    found = {
        r.spec.seed: r.audit.summary()
        for r in records
        if not r.audit.ok and dict(r.spec.backend_params) == {
            "audit": True, **failing.params_kwargs()
        }
    }
    assert found == expected


def test_audit_flags_forced_unsafe_deflections_like_reference():
    """The forced fork state of the contended-branch test, on the
    frontier kernel with audits on: packets 0 and 1 start ACTIVE at ``s``
    behind a broken two-edge detour, so the loser is deflected forward
    (unsafe) and the paths fail their chain check.  Each trial's report
    equals its reference run's, I_b deflection events included."""
    problem, (s, t1, e1) = _fork_problem()
    params = AlgorithmParams.practical(
        max(1, problem.congestion), problem.net.depth, problem.num_packets,
        m=5,
    )
    seeds = list(range(4))
    refs, auditors = [], []
    for seed in seeds:
        router = FrontierFrameRouter(params, seed=stable_hash_seed(seed, 2))
        ref = Engine(problem, router, seed=stable_hash_seed(seed, 3))
        auditor = InvariantAuditor(router)
        auditor.install(ref)
        refs.append(ref)
        auditors.append(auditor)
    lock = LockstepEngine.frontier(
        [problem] * len(seeds),
        [params] * len(seeds),
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        audit=True,
    )
    for trial, ref in enumerate(refs):
        for pid in (0, 1):
            _activate(ref, lock, trial, pid, s, detour=(e1, e1))
    results = lock.run(params.total_steps)
    for trial, (ref, auditor) in enumerate(zip(refs, auditors)):
        assert_results_identical(
            ref.run(params.total_steps), results[trial], f"({trial})"
        )
        report = lock.auditor.result(trial)
        assert_audits_identical(auditor.report, report, f"({trial})")
        assert any("unsafely" in v.detail for v in report.violations)
        assert report.count("I_b") > 1


# ------------------------------------------- union: one batch, many networks


@st.composite
def union_batch(draw):
    """Problems over distinct random leveled networks of one depth and one
    packet count: each trial draws its own topology seed and width, so the
    networks differ in size and the union's offsets are uneven.  With
    ``shared_source``, packets 0 and 1 share their endpoints, so crowded
    injections make ``I_a`` name nodes in the audit reports."""
    depth = draw(st.integers(min_value=2, max_value=5))
    trials = draw(st.integers(min_value=2, max_value=7))
    num = draw(st.integers(min_value=2, max_value=min(8, 2 * depth)))
    seed0 = draw(st.integers(min_value=0, max_value=2**31 - 1))
    shared_source = draw(st.booleans())
    problems = []
    for k in range(trials):
        width = draw(st.integers(min_value=2, max_value=4))
        seed = seed0 + 3 * k
        net = random_leveled(
            [width] * (depth + 1),
            edge_probability=0.6,
            seed=seed,
            min_out_degree=1,
            min_in_degree=1,
        )
        endpoints = list(random_many_to_one(net, num, seed=seed + 1).endpoints)
        if shared_source:
            endpoints[1] = endpoints[0]
        rng = make_rng(seed + 2)
        specs = [
            PacketSpec(pid, src, dst, random_monotone_path(net, src, dst, rng))
            for pid, (src, dst) in enumerate(endpoints)
        ]
        problems.append(RoutingProblem(net, specs, allow_multi_source=True))
    return problems


def reference_record(run, telemetry):
    """``run()``'s trial record, with telemetry counters as in
    :func:`reference`."""
    if not telemetry:
        return run()
    with TelemetrySession(timings=False) as session:
        record = run()
    session.finalize_result(record.result)
    return record


@given(
    union_batch(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.sampled_from(range(len(AUDIT_SCHEDULES))),
    st.sampled_from([None, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_frontier_union_fuzz(problems, seed0, telemetry, schedule, bound):
    """An audited frontier batch over one network per trial: every trial's
    result, counters and audit report (detail strings included, which
    name the trial's own nodes and edges) equal its reference run's.
    (Fast-forward stays on: the single-network fuzz covers it off, where
    an audited trial steps its whole budget.)"""
    assert len({id(p.net) for p in problems}) == len(problems)
    params = AUDIT_SCHEDULES[schedule]
    seeds = [seed0 + k for k in range(len(problems))]
    batch = run_frontier_trials_lockstep(
        problems, seeds, telemetry=telemetry, audit=True,
        audit_congestion_bound=bound, **params,
    )
    for problem, seed, rec in zip(problems, seeds, batch):
        ref = reference_record(
            lambda: run_frontier_trial(
                problem, seed, audit=True, audit_congestion_bound=bound,
                **params,
            ),
            telemetry,
        )
        assert asdict(rec.result) == asdict(ref.result), f"(seed {seed})"
        assert_audits_identical(ref.audit, rec.audit, f"(seed {seed})")


@given(
    union_batch(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_naive_union_fuzz(problems, seed0, telemetry):
    seeds = [seed0 + k for k in range(len(problems))]
    batch = run_naive_trials_lockstep(
        problems, seeds, 20000, telemetry=telemetry
    )
    for problem, seed, result in zip(problems, seeds, batch):
        ref = reference(
            lambda: run_router_trial(
                problem, lambda _s: NaivePathRouter(), seed, 20000
            ),
            telemetry,
        )
        assert asdict(result) == asdict(ref), f"(seed {seed})"


def test_union_audit_names_each_trials_own_ids():
    """The forced unsafe fork of the audit test, routed by trials 1 and 3
    of a batch whose other trials route two other networks of depth 2: the
    fork trials sit at nonzero offsets in the union, and their reports
    must name the fork's own edges, as the reference's do."""
    fork, (s, _, e1) = _fork_problem()
    others = []
    for seed in (5, 6):
        net = random_leveled(
            [3, 3, 3], edge_probability=0.6, seed=seed, min_out_degree=1,
            min_in_degree=1,
        )
        workload = random_many_to_one(net, fork.num_packets, seed=seed)
        others.append(select_paths_random(net, workload.endpoints, seed=seed))
    problems = [others[0], fork, others[1], fork]
    params = [
        AlgorithmParams.practical(
            max(1, p.congestion), p.net.depth, p.num_packets, m=5
        )
        for p in problems
    ]
    seeds = list(range(len(problems)))
    refs, auditors = [], []
    for problem, prm, seed in zip(problems, params, seeds):
        router = FrontierFrameRouter(prm, seed=stable_hash_seed(seed, 2))
        ref = Engine(problem, router, seed=stable_hash_seed(seed, 3))
        auditor = InvariantAuditor(router)
        auditor.install(ref)
        refs.append(ref)
        auditors.append(auditor)
    lock = LockstepEngine.frontier(
        problems,
        params,
        router_seeds=[stable_hash_seed(seed, 2) for seed in seeds],
        engine_seeds=[stable_hash_seed(seed, 3) for seed in seeds],
        audit=True,
    )
    assert lock._node_off.tolist()[1] > 0 and lock._edge_off.tolist()[1] > 0
    for trial in (1, 3):
        for pid in (0, 1):
            _activate(refs[trial], lock, trial, pid, s, detour=(e1, e1))
    budgets = [prm.total_steps for prm in params]
    results = lock.run(budgets)
    for trial, (ref, auditor) in enumerate(zip(refs, auditors)):
        assert_results_identical(
            ref.run(budgets[trial]), results[trial], f"({trial})"
        )
        report = lock.auditor.result(trial)
        assert_audits_identical(auditor.report, report, f"({trial})")
    for trial in (1, 3):
        details = [v.detail for v in lock.auditor.result(trial).violations]
        assert any("unsafely" in d for d in details)


def test_executor_mixes_shared_and_distinct_networks_in_one_sweep():
    """One audited sweep whose specs alternate between a pinned topology
    seed (one network, a new workload per trial) and unpinned ones (a
    network per trial): the chunk is one lockstep batch over the union of
    five networks, and every record and report equals the per-trial
    path's."""
    base = deep_random_spec(8, 3, 4, audit=True)
    shared = dataclasses.replace(
        base, topology_params={**base.topology_params, "seed": 5}
    )
    specs = [
        (shared if k % 2 else base).with_seed(k) for k in range(8)
    ]
    assert len({s.topology_seed() for s in specs}) == 5
    records = run_spec_trials(specs)
    assert {r.executor for r in records} == {"lockstep[w=8]"}
    refs = run_spec_trials(specs, lockstep=False)
    for ref, got in zip(refs, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
        assert_audits_identical(ref.audit, got.audit, f"({got.spec.seed})")


def test_stragglers_reuse_their_batch_problems(monkeypatch):
    """256 unpinned ``deep_random`` trials: the stragglers a batch reruns
    per trial route the problems the batch built, so each scenario is
    built once, however many the warm cache has evicted since."""
    import repro.scenarios.dispatch as scenario_dispatch

    manifest = SweepManifest.from_base(
        deep_random_spec(20, 6, 12), num_trials=256, shard_size=256, pin=False
    )
    specs = manifest.shard_specs(0)
    built = []
    build_problem_ = scenario_dispatch.build_problem

    def counting(spec, *args, **kwargs):
        built.append(spec.scenario_hash())
        return build_problem_(spec, *args, **kwargs)

    monkeypatch.setattr(scenario_dispatch, "build_problem", counting)
    records = run_spec_trials(specs)
    assert any(not r.executor for r in records)  # some trials straggled
    assert len(built) == len({s.scenario_hash() for s in specs})


def test_union_batch_reruns_its_stragglers_per_trial():
    """32 unpinned trials of the benchmark's ``deep_random`` cell: the
    batch stops once its last ``32 // 16`` trials are the only ones
    running, and those rerun per trial; every record equals the per-trial
    path's, and the rest carry the batch's tag."""
    manifest = SweepManifest.from_base(
        deep_random_spec(20, 6, 12), num_trials=32, shard_size=32, pin=False
    )
    specs = manifest.shard_specs(0)
    records = TrialExecutor().run_chunk(specs)
    tags = Counter(r.executor for r in records)
    assert 1 <= tags[""] <= 32 * batch_mod.LOCKSTEP_TAIL_SHARE
    assert tags["lockstep[w=32]"] == 32 - tags[""]
    refs = TrialExecutor(lockstep=False).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")
    cut = [r.result.steps_executed for r in records if not r.executor]
    kept = [r.result.steps_executed for r in records if r.executor]
    assert min(cut) > max(kept)


# ------------------------------------------------ executor: grouping/peel-off


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


def test_executor_caps_group_width():
    specs = sweep_specs(base_spec(), LOCKSTEP_MAX_TRIALS + LOCKSTEP_MIN_TRIALS)
    records = TrialExecutor().run_chunk(specs)
    widths = {r.executor for r in records}
    assert widths == {
        f"lockstep[w={LOCKSTEP_MAX_TRIALS}]",
        f"lockstep[w={LOCKSTEP_MIN_TRIALS}]",
    }


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


def test_executor_mixed_chunk_preserves_order_and_identity():
    """A naive spec interleaved with a frontier run splits the chunk: each
    frontier run locksteps and the naive spec falls through to the
    per-trial path (a group of one).  ``other`` routes a different
    instance over the same butterfly, so it joins the second frontier
    group; record order is spec order throughout."""
    width = LOCKSTEP_MIN_TRIALS
    frontier = sweep_specs(base_spec(), 2 * width)
    other = base_spec(seed=77).with_pinned_scenario()
    naive = base_spec(seed=23, backend="naive").with_pinned_scenario()
    specs = frontier[:width] + [naive] + frontier[width:] + [other]
    records = TrialExecutor().run_chunk(specs)
    assert [r.spec for r in records] == specs
    tags = [r.executor for r in records]
    assert other.scenario_hash() != frontier[0].scenario_hash()
    assert tags == (
        [f"lockstep[w={width}]"] * width
        + [""]
        + [f"lockstep[w={width + 1}]"] * (width + 1)
    )
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


@pytest.mark.parametrize(
    "backend, params",
    [("naive", {}), ("naive", {"max_steps": 3})],
)
def test_executor_locksteps_naive_family(backend, params):
    """Pinned naive groups run the naive lockstep kernel under
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


def test_telemetry_groups_run_on_lockstep():
    """Telemetry no longer splits a group: the kernel computes each
    trial's counters, equal to the lockstep=False path's observer-built
    ones, and the records carry no wall-clock timings."""
    specs = sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    records = TrialExecutor(telemetry=True).run_chunk(specs)
    refs = TrialExecutor(lockstep=False, telemetry=True).run_chunk(specs)
    for ref, got in zip(refs, records):
        assert got.executor == f"lockstep[w={LOCKSTEP_MIN_TRIALS}]"
        assert got.timings is None and ref.timings is not None
        assert got.result.telemetry is not None
        assert got.result.telemetry == ref.result.telemetry
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_counters_fold_deflections_in_reference_node_order():
    """A tick deflecting losers at several nodes folds their level changes
    node by node in order of first loser, as the reference emits them, not
    in node-id order: on this crowded naive instance the two orders give
    different transient occupancies, and so different ``level_peaks``."""
    net = random_leveled(
        [7] * 6,
        edge_probability=0.5,
        seed=127023494,
        min_out_degree=1,
        min_in_degree=1,
    )
    workload = random_many_to_one(net, 34, seed=127023495)
    problem = select_paths_random(net, workload.endpoints, seed=127023496)
    seeds = [0, 1, 2, 3]
    batch = run_naive_trials_lockstep(
        [problem] * len(seeds), seeds, 20000, telemetry=True
    )
    for seed, result in zip(seeds, batch):
        ref = reference(
            lambda: run_router_trial(
                problem, lambda _s: NaivePathRouter(), seed, 20000
            ),
            True,
        )
        assert_results_identical(ref, result, f"(seed {seed})")


#: ``tune_audit``'s candidate grid (the repo benchmark's tuning study).
TUNE_AUDIT_CANDIDATES = [TuningCandidate()] + [
    TuningCandidate(
        set_congestion_target=3.0, m=m, w_factor=wf, q=0.5, oversplit=1.0
    )
    for m in (None, 8, 6, 5)
    for wf in (1.0, 0.75)
]

#: Counter cases: the benchmark cells, the tuning base under each
#: candidate, conditioned set draws, and a budget too tight to deliver.
COUNTER_CASES = {
    **{name: (make, {}) for name, make in BENCH_CELLS.items()},
    **{
        f"tune[{cand.key()}]": (
            lambda: catalog_spec("mesh_corner_shift", seed=0),
            cand.params_kwargs(),
        )
        for cand in TUNE_AUDIT_CANDIDATES
    },
    "condition_sets": (
        lambda: butterfly_random_spec(5),
        {"condition_sets": True},
    ),
    "tight_budget": (
        lambda: butterfly_hotrow_spec(5, 32, backend="naive"),
        {"max_steps": 10},
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTER_CASES))
def test_counters_match_observer_across_widths(case, monkeypatch):
    """Lockstep counters at widths 1, 6 and 64 equal the per-trial
    observer's, with every other RunResult field, through the executor
    (its width threshold lowered to 1 so a single trial locksteps)."""
    make, params = COUNTER_CASES[case]
    specs = [s.with_params(**params) for s in sweep_specs(make(), 64)]
    refs = TrialExecutor(lockstep=False, telemetry=True).run_chunk(specs)
    monkeypatch.setattr(batch_mod, "LOCKSTEP_MIN_TRIALS", 1)
    for width in (1, 6, 64):
        records = TrialExecutor(telemetry=True).run_chunk(specs[:width])
        assert {r.executor for r in records} == {f"lockstep[w={width}]"}
        for ref, got in zip(refs, records):
            assert_results_identical(
                ref.result, got.result, f"(w={width}, {got.spec.seed})"
            )
    if case == "tight_budget":
        assert not any(r.result.all_delivered for r in refs)
    if case.endswith("hotrow") or case == "tight_budget":
        assert sum(r.result.telemetry["deflections"]["safe"] for r in refs)


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


def test_audit_specs_run_on_lockstep():
    """Audited specs lockstep like any other group, and each record
    carries the reference auditor's report, equal field for field."""
    specs = [
        s.with_params(audit=True)
        for s in sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS)
    ]
    records = TrialExecutor().run_chunk(specs)
    assert {r.executor for r in records} == {
        f"lockstep[w={LOCKSTEP_MIN_TRIALS}]"
    }
    for ref, got in zip(TrialExecutor(lockstep=False).run_chunk(specs), records):
        assert ref.audit is not None and ref.audit.ok
        assert got.audit == ref.audit
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_cache_hits_peel_out_of_the_group(tmp_path):
    """Disk hits come back as cached records; only the misses lockstep,
    and the stored bytes match what the per-trial path would store."""
    width = LOCKSTEP_MIN_TRIALS
    specs = sweep_specs(base_spec(), 3 + width)
    primer = TrialExecutor(cache_root=tmp_path, lockstep=False)
    primed = primer.run_chunk(specs[:3])
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


def test_width_threshold_counts_cache_misses(tmp_path):
    """A wide group whose disk misses fall below LOCKSTEP_MIN_TRIALS (a
    resumed cached sweep) runs those misses per trial, not at a narrow
    lockstep width, and stores them exactly as the per-trial path would."""
    width = LOCKSTEP_MIN_TRIALS
    specs = sweep_specs(base_spec(), 2 * width)
    primer = TrialExecutor(cache_root=tmp_path, lockstep=False)
    primer.run_chunk(specs[1:width + 2])
    records = TrialExecutor(cache_root=tmp_path).run_chunk(specs)
    misses = [r for r in records if not r.cached]
    assert len(misses) == width - 1
    assert all(r.executor == "" for r in records)
    replay = TrialExecutor(cache_root=tmp_path, lockstep=False).run_chunk(specs)
    assert all(r.cached for r in replay)
    for ref, got in zip(replay, records):
        assert_results_identical(ref.result, got.result, f"({got.spec.seed})")


def test_union_batch_makes_one_result_cache_pass(tmp_path, monkeypatch):
    """Each spec of a lockstep batch over a union of networks is looked up
    in the result cache once and stored once, stragglers included: a
    straggler runs per trial, and its cache entry keeps the ``timings``
    its record carries.  A second pass hits every spec and returns the
    same results and audits, byte for byte."""
    import json

    from repro.io import audit_to_dict, result_to_dict
    from repro.scenarios import ResultCache

    manifest = SweepManifest.from_base(
        catalog_spec("deep_random").with_params(audit=True),
        num_trials=32,
        shard_size=32,
        pin=False,
    )
    specs = manifest.shard_specs(0)
    assert len({s.topology_seed() for s in specs}) == 32
    loads, stores = Counter(), Counter()
    load_record, store = ResultCache.load_record, ResultCache.store

    def counted_load(self, spec):
        loads[spec.content_hash()] += 1
        return load_record(self, spec)

    def counted_store(self, spec, *args, **kwargs):
        stores[spec.content_hash()] += 1
        return store(self, spec, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "load_record", counted_load)
    monkeypatch.setattr(ResultCache, "store", counted_store)
    records = TrialExecutor(tmp_path, telemetry=True).run_chunk(specs)
    hashes = [s.content_hash() for s in specs]
    assert loads == Counter(hashes)
    assert stores == Counter(hashes)
    stragglers = [r for r in records if r.executor == ""]
    assert stragglers, Counter(r.executor for r in records)
    assert len(stragglers) <= int(32 * batch_mod.LOCKSTEP_TAIL_SHARE)
    cache = ResultCache(tmp_path)
    for record in stragglers:
        assert record.timings
        stored = json.loads(cache.path_for(record.spec).read_text())
        assert stored["timings"] == record.timings

    def dump(record):
        return json.dumps(
            [result_to_dict(record.result), audit_to_dict(record.audit)],
            sort_keys=True,
        )

    loads.clear(), stores.clear()
    replay = TrialExecutor(tmp_path, telemetry=True).run_chunk(specs)
    assert all(r.cached for r in replay)
    assert loads == Counter(hashes) and not stores
    assert [dump(r) for r in replay] == [dump(r) for r in records]


def test_run_spec_trials_batched_lockstep_toggle_identical():
    specs = sweep_specs(base_spec(), LOCKSTEP_MIN_TRIALS + 1)
    fast = run_spec_trials(specs)
    slow = run_spec_trials(specs, lockstep=False)
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


class TestSweepShardIdentity:
    @pytest.fixture
    def manifest(self):
        return SweepManifest.from_base(
            base_spec(), num_trials=SWEEP_TRIALS, shard_size=SHARD_SIZE
        )

    def test_lockstep_shards_byte_identical_to_serial(
        self, manifest, tmp_path
    ):
        for telemetry in (False, True):
            root = tmp_path / f"telemetry-{telemetry}"
            serial = open_store(root / "serial", manifest)
            run_sweep(
                manifest, serial, compact=False, lockstep=False,
                telemetry=telemetry,
            )
            lockstep = open_store(root / "lockstep", manifest)
            heartbeat = counting_heartbeat()
            run_sweep(
                manifest, lockstep, heartbeat=heartbeat, compact=False,
                telemetry=telemetry,
            )
            assert heartbeat.lockstep_trials == SWEEP_TRIALS
            for shard in manifest.shard_ids():
                assert lockstep.shard_bytes(shard) == serial.shard_bytes(
                    shard
                )

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
        """The sweep gathers both shards (one full, one ragged) into one
        group, so every trial runs in one batch as wide as the sweep."""
        for telemetry in (False, True):
            beats = []
            store = open_store(tmp_path / f"telemetry-{telemetry}", manifest)
            run_sweep(
                manifest, store, heartbeat=counting_heartbeat(beats.append),
                compact=False, telemetry=telemetry,
            )
            final = beats[-1]
            assert final["final"] is True
            assert final["lockstep_trials"] == SWEEP_TRIALS
            assert final["executor"] == f"lockstep[w={SWEEP_TRIALS}]"

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

    def test_unpinned_sweep_runs_on_lockstep(self, tmp_path):
        """Every trial of an unpinned manifest routes its own instance, all
        over the one butterfly, so the shard is one lockstep group of
        different problems; its bytes equal the per-trial path's."""
        manifest = SweepManifest.from_base(
            base_spec(), num_trials=SHARD_SIZE, shard_size=SHARD_SIZE, pin=False
        )
        specs = manifest.shard_specs(0)
        assert len({s.scenario_hash() for s in specs}) == SHARD_SIZE
        beats = []
        store = open_store(tmp_path / "unpinned", manifest)
        run_sweep(
            manifest, store, heartbeat=counting_heartbeat(beats.append),
            compact=False,
        )
        assert beats[-1]["lockstep_trials"] == SHARD_SIZE
        assert beats[-1]["executor"] == f"lockstep[w={SHARD_SIZE}]"
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        assert store.shard_bytes(0) == serial.shard_bytes(0)

    def test_unpinned_random_leveled_sweep_runs_on_lockstep(self, tmp_path):
        """``random_leveled`` builds a new network for each seed, so an
        unpinned shard is one lockstep batch over the union of its trials'
        networks; its bytes equal the per-trial path's."""
        manifest = SweepManifest.from_base(
            deep_random_spec(8, 3, 4),
            num_trials=SHARD_SIZE,
            shard_size=SHARD_SIZE,
            pin=False,
        )
        specs = manifest.shard_specs(0)
        assert len({s.topology_seed() for s in specs}) == SHARD_SIZE
        beats = []
        store = open_store(tmp_path / "unpinned", manifest)
        run_sweep(
            manifest, store, heartbeat=counting_heartbeat(beats.append),
            compact=False,
        )
        assert beats[-1]["lockstep_trials"] == SHARD_SIZE
        assert beats[-1]["executor"] == f"lockstep[w={SHARD_SIZE}]"
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False, lockstep=False)
        assert store.shard_bytes(0) == serial.shard_bytes(0)


def test_workers_2_sweep_keeps_every_qualifying_group_on_lockstep(
    tmp_path, monkeypatch
):
    """At ``workers=2`` two walker processes each run whole shards, so no
    trial of a fixed-problem sweep whose groups qualify leaves lockstep:
    the final heartbeat line, which merges both walkers' tallies, counts
    every trial as a lockstep one.  The shards equal a ``workers=1`` run's
    byte for byte."""
    monkeypatch.setattr(dispatch_mod, "usable_cpus", lambda: 8)
    size = LOCKSTEP_MAX_TRIALS + 2 * LOCKSTEP_MIN_TRIALS
    manifest = SweepManifest.from_base(
        base_spec(), num_trials=2 * size, shard_size=size
    )
    beats = []
    heartbeat = SweepHeartbeat(beats.append, total=2 * size, interval_sec=0.0)
    walked = open_store(tmp_path / "walked", manifest)
    run_sweep(manifest, walked, workers=2, heartbeat=heartbeat, compact=False)
    final = beats[-1]
    assert final["final"]
    assert (final["done"], final["executed"]) == (2 * size, 2 * size)
    assert final["lockstep_trials"] == 2 * size
    assert final["executor"].startswith("lockstep[")
    serial = open_store(tmp_path / "serial", manifest)
    run_sweep(manifest, serial, workers=1, compact=False)
    for shard in manifest.shard_ids():
        assert walked.shard_bytes(shard) == serial.shard_bytes(shard)


def test_pinned_batch_counts_congestion_once(bf4_random_problem, monkeypatch):
    """``C`` and ``D`` are memoized per problem: a 64-trial pinned batch
    reads them for every trial's result but walks the paths once."""
    calls = []
    edge_congestion = RoutingProblem.edge_congestion

    def counting(self):
        calls.append(self)
        return edge_congestion(self)

    monkeypatch.setattr(RoutingProblem, "edge_congestion", counting)
    problem = RoutingProblem(bf4_random_problem.net, bf4_random_problem.packets)
    results = LockstepEngine.naive(
        [problem] * 64, engine_seeds=list(range(64))
    ).run(200)
    assert len(calls) == 1
    fresh = RoutingProblem(problem.net, problem.packets)
    assert problem.congestion == max(fresh.edge_congestion())
    assert problem.dilation == max(len(spec.path) for spec in fresh)
    assert {(r.congestion, r.dilation) for r in results} == {
        (problem.congestion, problem.dilation)
    }
    assert all(r.all_delivered for r in results)
