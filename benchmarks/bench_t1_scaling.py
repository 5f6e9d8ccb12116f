"""T1 — Theorem 4.26: routing time scales as Õ(C + L).

Two sweeps with a *fixed* frame parameterization (m, w, per-set congestion
target held constant so the polylog factor is the same across instances):

* C-sweep: hot-row butterflies, depth fixed, congestion growing with the
  packet count;
* L-sweep: random leveled networks of growing depth, congestion held low
  by bottleneck path selection.

For each instance we report the makespan, the ratio to the trivial bound
``max(C, D)``, and the effective polylog exponent β solving
``T = (C+L)·ln^β(LN)``; a straight-line fit of ``T`` against ``C + L``
closes the table.  The paper predicts linear growth in ``C + L`` (β ≤ 9 for
the theory constants; the practical parameterization lands near β ≈ 2–4).
"""

from repro.analysis import (
    effective_polylog_exponent,
    fit_affine,
    format_table,
)
from repro.experiments import butterfly_hotrow_spec, deep_random_spec
from repro.rng import stable_hash_seed

from _common import emit, once, reset, run_pinned

#: fixed frame parameterization for the whole sweep
FRAME_KW = dict(m=8, w_factor=8.0, set_congestion_target=3.0)
SEEDS = [0, 1, 2]


def sweep(instances, label):
    rows = []
    xs, ys = [], []
    for index, (name, spec) in enumerate(instances):
        # The instance is held fixed while the algorithm's coins vary.
        problem, records = run_pinned(
            spec, [stable_hash_seed(seed, index) for seed in SEEDS]
        )
        makespans = []
        for record in records:
            assert record.result.all_delivered, (name, record.result.summary())
            makespans.append(record.result.makespan)
        mean_t = sum(makespans) / len(makespans)
        c, l, n = problem.congestion, problem.net.depth, problem.num_packets
        xs.append(c + l)
        ys.append(mean_t)
        rows.append(
            (
                name,
                n,
                c,
                l,
                c + l,
                int(mean_t),
                f"{mean_t / max(1, max(c, problem.dilation)):.0f}x",
                f"{effective_polylog_exponent(int(mean_t), c, l, n):.2f}",
            )
        )
    # Affine fit: the pipeline fill (num_sets*m phases before the last
    # frame enters) contributes a parameterization constant; the slope is
    # the per-(C+L) cost Theorem 4.26 bounds by the polylog.
    fit = fit_affine(xs, ys)
    return rows, fit


def test_t1_congestion_sweep(benchmark):
    reset("t1_scaling")
    instances = [
        (f"bf(5) hot-row N={n}", butterfly_hotrow_spec(5, n, seed=11, **FRAME_KW))
        for n in (4, 8, 12, 16, 24, 32)
    ]
    rows, fit = sweep(instances, "C")
    emit(
        "t1_scaling",
        format_table(
            ["instance", "N", "C", "L", "C+L", "T (mean)", "T/max(C,D)", "eff. β"],
            rows,
            title="T1a: C-sweep (depth fixed at L=5, congestion grows)",
            note=f"affine fit T = {fit.intercept:.0f} + {fit.slope:.0f}·(C+L), "
            f"R² = {fit.r_squared:.4f} — near-linear growth in C as "
            "Theorem 4.26 predicts",
        ),
    )
    assert fit.r_squared > 0.9

    once(benchmark, run_pinned, instances[-1][1], [0])


def test_t1_depth_sweep(benchmark):
    instances = [
        (
            f"random w=6 L={depth}",
            deep_random_spec(depth, 6, 12, seed=13, **FRAME_KW),
        )
        for depth in (10, 16, 24, 32, 48, 64)
    ]
    rows, fit = sweep(instances, "L")
    emit(
        "t1_scaling",
        format_table(
            ["instance", "N", "C", "L", "C+L", "T (mean)", "T/max(C,D)", "eff. β"],
            rows,
            title="T1b: L-sweep (congestion held low, depth grows)",
            note=f"affine fit T = {fit.intercept:.0f} + {fit.slope:.0f}·(C+L), "
            f"R² = {fit.r_squared:.4f} — near-linear growth in L as "
            "Theorem 4.26 predicts",
        ),
    )
    assert fit.r_squared > 0.9

    once(benchmark, run_pinned, instances[-1][1], [0])
