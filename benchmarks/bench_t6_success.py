"""T6 — Theorem 4.26's probability: routing succeeds w.h.p.

"By time O((C + L)·ln^9(LN)), all packets are absorbed with probability at
least 1 − 1/LN."

The practical analog: over many independent seeded trials (fresh random
frontier-set assignment, excitation coins and tie-breaks each time), count
how often every packet is absorbed within the practical schedule
``(num_sets·m + L)·m·w``.  The Wilson interval of the success rate is
compared against the theorem's ``1 − 1/LN`` reference level.
"""

from repro.analysis import format_table, wilson_interval
from repro.experiments import (
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
)
from repro.rng import trial_seeds

from _common import emit, once, reset, run_pinned

TRIALS = 60


def success_sweep(spec, trials=TRIALS):
    problem, records = run_pinned(
        spec.with_params(m=8, w_factor=8.0), trial_seeds(2026, trials)
    )
    return problem, sum(record.result.all_delivered for record in records)


def test_t6_success_probability(benchmark):
    reset("t6_success")
    rows = []
    for name, spec in [
        ("bf(4) random", butterfly_random_spec(4, seed=51)),
        ("bf(4) hot-row N=12", butterfly_hotrow_spec(4, 12, seed=52)),
        ("random w=6 L=20", deep_random_spec(20, 6, 12, seed=53)),
    ]:
        problem, successes = success_sweep(spec)
        L, N = problem.net.depth, problem.num_packets
        lo, hi = wilson_interval(successes, TRIALS)
        reference = 1.0 - 1.0 / (L * N)
        rows.append(
            (
                name,
                f"{successes}/{TRIALS}",
                f"[{lo:.3f}, {hi:.3f}]",
                f"{reference:.4f}",
                "yes" if hi >= reference else "NO",
            )
        )
        # The theorem's regime: failures are rare; require the interval to
        # be consistent with the 1 - 1/LN reference.
        assert hi >= reference
        assert successes >= TRIALS - 2
    emit(
        "t6_success",
        format_table(
            [
                "instance",
                "successes",
                "Wilson 95% CI",
                "theorem ref 1-1/LN",
                "consistent",
            ],
            rows,
            title=f"T6 (Theorem 4.26): delivery-within-schedule over "
            f"{TRIALS} independent trials",
            note="success = every packet absorbed within the practical "
            "schedule (num_sets*m + L)*m*w, with fresh random frontier "
            "sets and coins per trial",
        ),
    )

    once(benchmark, success_sweep, butterfly_random_spec(4, seed=51), 10)
