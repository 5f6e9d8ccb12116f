"""T8 — Lemma 4.20: geometric settling of unsettled packets per round.

"B_j <= B_{j-1}·(1 − 1/ln(LN))" — each round, at least a `1/C_i` fraction
of the not-yet-waiting packets of a frame reach their target and settle,
because every contested target edge parks at least one packet (Lemma
4.19).  We instrument the router to record ``|B_j|`` (active packets not in
wait) at the start of every round and measure the per-round decay within
phases, comparing the realized ratio against the lemma's
``1 − 1/c*`` prediction for the configured per-set congestion bound.

Unlike most experiments, this one keeps its own trial loop on
:class:`~repro.sim.Engine` instead of running specs through the trial
executor: it reads the router's ``round_stats``
(``collect_round_stats=True``) with fast-forward off, and no backend
param carries either.
"""

from collections import defaultdict

from repro.analysis import format_table, summarize
from repro.core import AlgorithmParams, FrontierFrameRouter
from repro.experiments import deep_random_spec
from repro.scenarios import build_problem
from repro.sim import Engine

from _common import emit, once, reset


def settling_curves(problem, c_star, seed):
    params = AlgorithmParams.practical(
        max(1, problem.congestion),
        problem.net.depth,
        problem.num_packets,
        m=10,
        w_factor=8.0,
        set_congestion_target=c_star,
        oversplit=1.0,
    )
    router = FrontierFrameRouter(
        params, seed=seed, collect_round_stats=True
    )
    engine = Engine(problem, router, seed=seed + 1, enable_fast_forward=False)
    result = engine.run(params.total_steps)
    assert result.all_delivered, result.summary()
    by_phase = defaultdict(dict)
    for phase, round_index, active, unsettled in router.round_stats:
        by_phase[phase][round_index] = (active, unsettled)
    return params, by_phase


def decay_ratios(by_phase):
    """Per-round ratios B_{j+1}/B_j over rounds 1..m-1 (rounds >= 1 share
    the receding-target regime of the lemma)."""
    ratios = []
    for rounds in by_phase.values():
        for j in sorted(rounds):
            nxt = rounds.get(j + 1)
            if nxt is None or j < 1:
                continue
            _, b_j = rounds[j]
            _, b_next = nxt
            if b_j >= 2:
                ratios.append(b_next / b_j)
    return ratios


def test_t8_settling_decay(benchmark):
    reset("t8_settling")
    problem = build_problem(
        deep_random_spec(30, 6, 18, seed=101, low_congestion=False)
    )
    rows = []
    for c_star in (float(problem.congestion), 3.0, 2.0):
        params, by_phase = settling_curves(problem, c_star, seed=102)
        ratios = decay_ratios(by_phase)
        if not ratios:
            rows.append((f"c*={c_star:.0f}", params.num_sets, "-", "-", "-"))
            continue
        stats = summarize(ratios)
        lemma_ratio = 1.0 - 1.0 / max(1.0, c_star)
        rows.append(
            (
                f"c*={c_star:.0f}",
                params.num_sets,
                len(ratios),
                f"{stats.mean:.2f}",
                f"{lemma_ratio:.2f}",
            )
        )
        # The lemma's shape: realized decay at least as fast as predicted
        # (the bound is a worst case).
        assert stats.mean <= lemma_ratio + 0.15, (c_star, stats)
    emit(
        "t8_settling",
        format_table(
            [
                "config",
                "frames",
                "round transitions",
                "mean B_{j+1}/B_j",
                "lemma bound 1-1/c*",
            ],
            rows,
            title=f"T8 (Lemma 4.20): per-round settling decay on "
            f"{problem.describe()}",
            note="realized decay is at or below the lemma's worst-case "
            "ratio: a constant fraction of unsettled packets parks each "
            "round, geometrically emptying the frame tail (whence "
            "invariant I_f)",
        ),
    )

    once(benchmark, settling_curves, problem, 3.0, 102)


def test_t8_rounds_to_settle(benchmark):
    """How many rounds until B_j = 0, vs the m budget."""
    problem = build_problem(
        deep_random_spec(30, 6, 18, seed=103, low_congestion=False)
    )
    params, by_phase = settling_curves(problem, 3.0, seed=104)
    rows = []
    worst = 0
    for phase in sorted(by_phase):
        rounds = by_phase[phase]
        settle_round = None
        for j in sorted(rounds):
            if rounds[j][1] == 0:
                settle_round = j
                break
        if settle_round is None:
            settle_round = max(rounds) + 1
        worst = max(worst, settle_round)
        rows.append((phase, rounds[min(rounds)][0], settle_round))
    emit(
        "t8_settling",
        format_table(
            ["phase", "active packets", "rounds until B_j = 0"],
            rows[:14],
            title=f"T8b: settling time per phase (m = {params.m} rounds "
            "available)",
            note=f"worst observed: {worst} rounds — comfortably inside the "
            f"m = {params.m} budget, leaving the I_f margin intact",
        ),
    )
    assert worst <= params.m - 3  # leaves the last-3-levels margin

    once(benchmark, settling_curves, problem, 3.0, 104)
