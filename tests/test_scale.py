"""Moderate-scale end-to-end runs (seconds, not minutes).

These guard against accidental complexity blowups: the stack must handle
hundreds of packets and depth ~60 networks in a couple of seconds thanks
to the active-id registry and the quiescence fast-forward.
"""

import time

from repro.experiments import deep_random_spec, run_frontier_trial
from repro.net import butterfly
from repro.paths import select_paths_bit_fixing
from repro.scenarios import build_problem
from repro.workloads import butterfly_workloads


def test_butterfly7_full_permutation():
    net = butterfly(7)  # 1024 nodes, 1792 edges
    wl = butterfly_workloads.full_permutation(net, seed=1)
    problem = select_paths_bit_fixing(net, wl.endpoints)
    assert problem.num_packets == 128
    start = time.perf_counter()
    record = run_frontier_trial(problem, seed=2, m=8, w_factor=8.0)
    elapsed = time.perf_counter() - start
    assert record.result.all_delivered
    assert record.result.unsafe_deflections == 0
    assert elapsed < 10.0, f"butterfly(7) run took {elapsed:.1f}s"
    # Fast-forward must carry the bulk of the schedule.
    assert record.result.steps_skipped > 10 * record.result.steps_executed


def test_deep_wide_random_network():
    problem = build_problem(deep_random_spec(60, 12, 60, seed=3, low_congestion=False))
    assert problem.net.depth == 60
    start = time.perf_counter()
    record = run_frontier_trial(problem, seed=2, m=8, w_factor=8.0)
    elapsed = time.perf_counter() - start
    assert record.result.all_delivered
    assert elapsed < 20.0, f"deep run took {elapsed:.1f}s"
