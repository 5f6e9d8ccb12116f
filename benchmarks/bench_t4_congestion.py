"""T4 — Lemma 2.2: frontier-set congestion concentration.

"Using a Chernoff-type bound, we can show, with high probability, that the
congestion of the preselected paths in all the frontier-sets is no more
than ln(LN)."

This bench draws many uniform frontier-set assignments for fixed problems,
measures the realized ``max_i C_i``, and compares:

* the empirical exceedance rate of the bound against the Chernoff/union
  prediction (:func:`repro.analysis.lemma22_failure_bound`);
* the realized distribution against the predicted concentration quantiles.
"""

import math

from repro.analysis import (
    empirical_exceedance_rate,
    format_table,
    lemma22_failure_bound,
    predicted_max_set_congestion_quantile,
    summarize,
)
from repro.core import assign_frontier_sets, max_frontier_set_congestion
from repro.experiments import butterfly_hotrow_spec, butterfly_random_spec
from repro.rng import trial_seeds
from repro.scenarios import build_problem

from _common import emit, once, reset

TRIALS = 300


def concentration(problem, num_sets, bound):
    maxima = [
        max_frontier_set_congestion(
            problem,
            assign_frontier_sets(problem, num_sets, seed=seed),
            num_sets,
        )
        for seed in trial_seeds(4242, TRIALS)
    ]
    return maxima


def test_t4_set_congestion_concentration(benchmark):
    reset("t4_congestion")
    rows = []
    for name, spec in [
        ("bf(6) hot-row N=40", butterfly_hotrow_spec(6, 40, seed=31)),
        ("bf(6) random", butterfly_random_spec(6, seed=32)),
        ("bf(5) hot-row N=24", butterfly_hotrow_spec(5, 24, seed=33)),
    ]:
        problem = build_problem(spec)
        L, N, C = problem.net.depth, problem.num_packets, problem.congestion
        lnln = max(1.0, math.log(L * N))
        # Paper-style set count with the 2e^3 slack, and the ln(LN) bound.
        num_sets = max(1, math.ceil(2 * math.e**3 / lnln * C))
        maxima = concentration(problem, num_sets, lnln)
        stats = summarize(maxima)
        empirical = empirical_exceedance_rate(maxima, lnln)
        predicted = lemma22_failure_bound(
            C, L, N, num_sets, problem.net.num_edges, lnln
        )
        q99 = predicted_max_set_congestion_quantile(
            C, num_sets, problem.net.num_edges, quantile=0.99
        )
        rows.append(
            (
                name,
                C,
                num_sets,
                f"{lnln:.2f}",
                f"{stats.mean:.2f}",
                int(stats.maximum),
                q99,
                f"{empirical:.4f}",
                f"{predicted:.2e}",
            )
        )
        # Lemma 2.2's shape: realized exceedance is within the predicted
        # union bound (both are ~0 with the paper's slack).
        assert empirical <= max(predicted, 1.5 / TRIALS)
        assert stats.maximum <= max(lnln, q99)
    emit(
        "t4_congestion",
        format_table(
            [
                "instance",
                "C",
                "aC (sets)",
                "ln(LN)",
                "mean max C_i",
                "worst",
                "pred. q99",
                "empirical P[>ln(LN)]",
                "union bound",
            ],
            rows,
            title=f"T4 (Lemma 2.2): max frontier-set congestion over "
            f"{TRIALS} random assignments",
            note="with the paper's a = 2e^3/ln(LN) oversplit, per-set "
            "congestion concentrates far below ln(LN); the union bound "
            "dominates the (zero) empirical exceedance",
        ),
    )

    problem = build_problem(butterfly_hotrow_spec(5, 24, seed=33))
    once(benchmark, concentration, problem, 8, 3.0)
