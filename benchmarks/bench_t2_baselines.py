"""T2 — "the benefit from using buffers is no more than polylogarithmic".

The paper's framing: buffered store-and-forward routing achieves
``O(C + L + log N)`` on leveled networks (Leighton et al. [16]) while the
trivial lower bound is ``Ω(C + D)`` for everyone; Theorem 4.26 shows the
bufferless frontier-frame algorithm is within a polylog of that.  This
bench runs the full router roster on shared instances and reports each
makespan as a multiple of ``max(C, D)``:

* buffered baselines (store-and-forward, random-delay) land at small
  constants;
* bufferless greedy baselines are fast when congestion is benign and
  degrade on hot spots;
* the frontier-frame router pays its polylog schedule — bounded, as the
  theorem says, and the ratio to the buffered time *is* the measured
  "benefit from buffers".
"""

from functools import partial

from repro.analysis import format_table, polylog_factor
from repro.experiments import (
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
)

from _common import emit, once, reset, run_pinned

INSTANCES = [
    ("bf(5) random", partial(butterfly_random_spec, 5, seed=21)),
    ("bf(5) hot-row N=16", partial(butterfly_hotrow_spec, 5, 16, seed=22)),
    ("random w=6 L=24", partial(deep_random_spec, 24, 6, 12, seed=23)),
    ("mesh 8x8 corner-shift", partial(mesh_corner_shift_spec, 8)),
]

#: (table label, backend, backend params) for every router in the roster
ROUTERS = [
    ("store&forward", "storeforward", {}),
    ("random-delay [16]", "random_delay", {}),
    ("naive hot-potato", "naive", {}),
    ("greedy hot-potato", "greedy", {}),
    ("rand-greedy [11]", "randgreedy", {}),
    ("frontier-frame (paper)", "frontier", {"m": 8, "w_factor": 8.0}),
]


def run_all_routers(instance, seed=0):
    problem, records = run_pinned(
        [instance(backend=backend, **params) for _, backend, params in ROUTERS],
        [seed],
    )
    return problem, {
        label: record.result for (label, _, _), record in zip(ROUTERS, records)
    }


def test_t2_router_roster(benchmark):
    reset("t2_baselines")
    for name, instance in INSTANCES:
        problem, results = run_all_routers(instance)
        bound = max(problem.congestion, problem.dilation)
        rows = []
        for router_name, result in results.items():
            status = "ok" if result.all_delivered else (
                f"{result.num_packets - result.delivered} stuck"
            )
            rows.append(
                (
                    router_name,
                    result.makespan,
                    f"{result.makespan / bound:.1f}x",
                    result.total_deflections,
                    status,
                )
            )
        buffered = results["store&forward"].makespan
        frontier = results["frontier-frame (paper)"].makespan
        ratio = frontier / max(1, buffered)
        ln9 = polylog_factor(problem.net.depth, problem.num_packets)
        emit(
            "t2_baselines",
            format_table(
                ["router", "T", "T/max(C,D)", "deflections", "delivered"],
                rows,
                title=f"T2: {name} — {problem.describe()}",
                note=(
                    f"buffers buy a factor {ratio:.0f} here; Theorem 4.26 "
                    f"caps it by O(ln^9(LN)) = O({ln9:.2e}) — the measured "
                    "benefit is far below the theoretical ceiling"
                ),
            ),
        )
        assert results["store&forward"].all_delivered
        assert results["frontier-frame (paper)"].all_delivered
        assert ratio <= ln9  # the paper's headline inequality

    once(benchmark, run_all_routers, INSTANCES[0][1])
