"""A1 — ablation: the excitation probability q.

The analysis sets ``q = 1/(m²·ln(LN))`` so that an excited packet almost
surely meets no *other* excited packet on its sprint (Lemma 4.2) while
deflected packets still get escape chances (Lemma 4.4).  Sweeping q around
the practical default ``1/m`` shows the trade-off:

* q = 0 removes the escape mechanism — packets rely purely on random
  tie-breaking (slower settling, more wait evictions on contested spots);
* very large q floods the network with excited packets, so excitement no
  longer confers protection (excited-vs-excited conflicts return).
"""

from repro.analysis import format_table, summarize
from repro.experiments import deep_random_spec, resolve_trial_params
from repro.rng import trial_seeds
from repro.scenarios import build_problem

from _common import emit, once, reset, run_pinned

SEEDS = trial_seeds(31415, 5)

#: the deep, path-congested instance both sweeps route
INSTANCE = deep_random_spec(28, 6, 16, seed=71, low_congestion=False)


def sweep_q(q):
    _, records = run_pinned(INSTANCE.with_params(m=8, w_factor=8.0, q=q), SEEDS)
    makespans, deflections, excitations, evictions, delivered = [], [], [], [], 0
    for record in records:
        result = record.result
        if result.all_delivered:
            delivered += 1
        makespans.append(result.makespan)
        deflections.append(result.total_deflections)
        excitations.append(result.extra["excitations"])
        evictions.append(result.extra["wait_evictions"])
    return {
        "delivered": delivered,
        "makespan": summarize(makespans),
        "deflections": summarize(deflections),
        "excitations": summarize(excitations),
        "evictions": summarize(evictions),
    }


def test_a1_excitation_probability(benchmark):
    reset("a1_excitation")
    problem = build_problem(INSTANCE)
    m = 8
    rows = []
    for label, q in [
        ("0 (off)", 0.0),
        ("1/(4m)", 1 / (4 * m)),
        ("1/m (default)", 1 / m),
        ("4/m", 4 / m),
        ("0.9 (flood)", 0.9),
    ]:
        stats = sweep_q(q)
        rows.append(
            (
                label,
                f"{stats['delivered']}/{len(SEEDS)}",
                int(stats["makespan"].mean),
                int(stats["deflections"].mean),
                int(stats["excitations"].mean),
                int(stats["evictions"].mean),
            )
        )
    emit(
        "a1_excitation",
        format_table(
            ["q", "delivered", "T (mean)", "deflections", "excitations", "wait evictions"],
            rows,
            title=f"A1: excitation-probability ablation on {problem.describe()}",
            note="deflections measure contention churn; the paper's design "
            "point (moderate q) keeps sprints protected without flooding",
        ),
    )
    # All configurations deliver on this benign instance; the interesting
    # signal is the churn columns.
    assert all(row[1] == f"{len(SEEDS)}/{len(SEEDS)}" for row in rows)

    once(benchmark, sweep_q, 1 / m)


def sweep_q_hot(problem, q, m=8):
    """Single-frame variant: all packets share one frame (max contention)."""
    frame = dict(
        m=m,
        w_factor=8.0,
        q=q,
        set_congestion_target=float(problem.congestion),
        oversplit=1.0,
    )
    assert resolve_trial_params(problem, **frame).num_sets == 1
    _, records = run_pinned(INSTANCE.with_params(**frame), SEEDS)
    delivered = 0
    deflections, evictions, mean_times = [], [], []
    for record in records:
        result = record.result
        if result.all_delivered:
            delivered += 1
        deflections.append(result.total_deflections)
        evictions.append(result.extra["wait_evictions"])
        mean_times.append(result.mean_delivery_time)
    return delivered, deflections, evictions, mean_times


def test_a1_excitation_under_contention(benchmark):
    """One frame on a deep network: heavy wait-eviction churn."""
    problem = build_problem(INSTANCE)
    m = 8
    rows = []
    for label, q in [
        ("0 (off)", 0.0),
        ("1/m", 1 / m),
        ("0.5", 0.5),
    ]:
        delivered, deflections, evictions, mean_times = sweep_q_hot(problem, q, m)
        rows.append(
            (
                label,
                f"{delivered}/{len(SEEDS)}",
                int(sum(deflections) / len(deflections)),
                int(sum(evictions) / len(evictions)),
                int(sum(mean_times) / len(mean_times)),
            )
        )
        assert delivered == len(SEEDS)
    emit(
        "a1_excitation",
        format_table(
            ["q", "delivered", "deflections", "wait evictions", "mean delivery"],
            rows,
            title=f"A1b: same sweep with ALL packets in one frame "
            f"({problem.describe()})",
            note="reproduction finding: even with heavy eviction churn the "
            "instance settles for every q (higher q slightly *increases* "
            "churn as excited sprints evict more waiters) — the excited "
            "state is an analysis device that tightens the w.h.p. bound, "
            "not a practical necessity at simulable sizes",
        ),
    )

    once(benchmark, sweep_q_hot, problem, 1 / m, m)
