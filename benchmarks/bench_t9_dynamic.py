"""T9 — dynamic deflection routing (after the paper's reference [9]).

The paper routes static batches; Broder–Upfal's dynamic setting (which it
cites as the hot-potato context) injects packets continuously.  The
engine's timed-eligibility mechanism handles this directly; the bench
sweeps Bernoulli injection rates toward the bandwidth limit on a butterfly
and reports the classic stability picture: latency is flat and near the
path length at low load and diverges as utilization approaches 1, while
deflections stay backward-and-safe throughout (the Lemma 2.1 mechanics are
load-independent).

Unlike most experiments, this one keeps its own trial loop on
:class:`~repro.sim.Engine` instead of running specs through the trial
executor: it draws its arrivals, paths and router and engine coins from
``seed`` to ``seed + 3`` and needs the arrival times for
``dynamic_stats``, while an arrival spec derives its seeds its own way.
"""

from repro.analysis import format_table
from repro.baselines import GreedyHotPotatoRouter, NaivePathRouter
from repro.net import butterfly
from repro.sim import Engine
from repro.traffic import (
    BernoulliSource,
    collect_arrivals,
    dynamic_stats,
    offered_load,
    problem_from_arrivals,
)

from _common import emit, once, reset

HORIZON = 200


def run_dynamic(net, rate, router_kind, seed):
    arrivals = collect_arrivals(
        BernoulliSource(net, rate, seed=seed, horizon=HORIZON)
    )
    problem, times = problem_from_arrivals(net, arrivals, seed=seed + 1)
    if router_kind == "naive":
        router = NaivePathRouter()
    else:
        router = GreedyHotPotatoRouter(seed=seed + 2)
    # The problem carries its arrival schedule; the engine gates on it.
    engine = Engine(problem, router, seed=seed + 3)
    result = engine.run(HORIZON + 50000)
    stats = dynamic_stats(
        result, times, [len(spec.path) for spec in problem]
    )
    load = offered_load(net, arrivals, HORIZON)
    return load, result, stats


def test_t9_stability_sweep(benchmark):
    reset("t9_dynamic")
    net = butterfly(4)
    for router_kind in ("naive", "greedy"):
        rows = []
        stretches = []
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            load, result, stats = run_dynamic(net, rate, router_kind, seed=7)
            assert result.all_delivered, result.summary()
            assert result.unsafe_deflections == 0
            rows.append((f"{rate:.1f}", f"{load:.2f}") + stats.as_row())
            stretches.append(stats.mean_hop_stretch)
        emit(
            "t9_dynamic",
            format_table(
                [
                    "rate",
                    "util",
                    "packets",
                    "delivered",
                    "drained",
                    "mean lat",
                    "p50",
                    "p95",
                    "stretch",
                ],
                rows,
                title=f"T9 ({router_kind}): dynamic deflection routing on "
                f"{net.describe()}, {HORIZON}-step Bernoulli arrivals",
                note="latency diverges as utilization approaches the "
                "bandwidth limit (the [9] stability picture); every "
                "deflection remained backward and safe at every load",
            ),
        )
        # Stability shape: latency stretch grows monotonically-ish in load.
        assert stretches[-1] > 2 * stretches[0]

    once(benchmark, run_dynamic, net, 0.5, "naive", 7)
