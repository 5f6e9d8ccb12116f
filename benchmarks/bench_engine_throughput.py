"""Simulator throughput floors: same-run ratio checks.

Not a paper experiment — these keep the simulator's own speed-ups from
quietly eroding.  Each check times two legs of the same work in one run,
so the bound holds on any host:

* the lockstep batch kernel against the warm per-trial executor;
* the warm batched dispatcher against the cold per-trial path;
* the sharded sweep engine against the batched dispatcher;
* the open-loop stream (``repro serve``'s core), which has no second leg,
  against an absolute steps/sec floor.

The trial legs run one fixed-problem Monte Carlo sweep on the build-heavy
``deep_random`` catalog instance, where every spec shares one scenario and
only the routing coins vary.  Every leg must also return the same records.
The two legs of a check run alternately and each keeps its fastest time:
the host's speed changes in bursts, and a burst inside one leg alone would
skew the ratio.

The checks are plain tests, not pytest-benchmark cases: run them with
``python -m pytest benchmarks/bench_engine_throughput.py -q`` on an
otherwise idle host.  ``--benchmark-only`` skips them.
"""

import pathlib
import tempfile
import time
from dataclasses import asdict

from repro.experiments import deep_random_spec, run_spec_trials, sweep_specs
from repro.experiments.batch import TrialExecutor
from repro.scenarios import run_trial

from _common import bench_workers

NUM_TRIALS = 64

#: Lockstep kernel trials/sec over the warm per-trial executor's.
LOCKSTEP_SPEEDUP_FLOOR = 5.0
#: Warm batched dispatch trials/sec over the cold per-trial path's.
PARALLEL_SPEEDUP_FLOOR = 2.0
#: Sweep-engine trials/sec as a share of the batched dispatcher's: the
#: manifest, lease, segment and aggregate bookkeeping may cost no more.
SWEEP_VS_BATCHED_FLOOR = 0.35
#: Open-loop stream steps/sec: half the 1968.2 steps/sec the engine ran at
#: before its fast path (interleaved best-of-3 rounds on an idle x86_64
#: CPython 3.11 host).
STREAMING_FLOOR_STEPS_PER_SEC = 984.1


def _specs():
    return sweep_specs(deep_random_spec(20, 6, 12, seed=2026), NUM_TRIALS)


def _results(records):
    return [asdict(r.result) for r in records]


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _race(slow, fast, repeats=3):
    """Run the two legs alternately; each leg's last output and fastest
    time, as ``(slow_out, slow_s, fast_out, fast_s)``."""
    slow_s = fast_s = float("inf")
    for _ in range(repeats):
        slow_out, elapsed = _timed(slow)
        slow_s = min(slow_s, elapsed)
        fast_out, elapsed = _timed(fast)
        fast_s = min(fast_s, elapsed)
    return slow_out, slow_s, fast_out, fast_s


def _batched(specs):
    return lambda: run_spec_trials(specs, workers=bench_workers(2))


def test_lockstep_speedup_floor():
    specs = _specs()
    per_trial, lockstep = TrialExecutor(lockstep=False), TrialExecutor()
    # Steady state: each executor builds the scenario before the timer.
    for executor in (per_trial, lockstep):
        executor.scenarios.problem_for(specs[0])
    ref, ref_s, got, got_s = _race(
        lambda: per_trial.run_chunk(specs),
        lambda: lockstep.run_chunk(specs),
        repeats=5,
    )
    assert all(r.executor.startswith("lockstep") for r in got)
    assert _results(ref) == _results(got)
    speedup = ref_s / got_s
    print(f"lockstep speedup {speedup:.2f}x (floor {LOCKSTEP_SPEEDUP_FLOOR})")
    assert speedup >= LOCKSTEP_SPEEDUP_FLOOR


def test_parallel_speedup_floor():
    specs = _specs()
    # The pre-batching execution model: a fresh build and a per-trial
    # engine for every spec.
    cold, cold_s, batched, batched_s = _race(
        lambda: [run_trial(spec) for spec in specs],
        _batched(specs),
    )
    assert _results(cold) == _results(batched)
    speedup = cold_s / batched_s
    print(f"batched speedup {speedup:.2f}x (floor {PARALLEL_SPEEDUP_FLOOR})")
    assert speedup >= PARALLEL_SPEEDUP_FLOOR


def test_sweep_throughput_floor():
    from repro.sweeps import manifest_from_specs, open_store, run_sweep

    specs = _specs()
    manifest = manifest_from_specs(specs, shard_size=16)

    def sweep():
        with tempfile.TemporaryDirectory() as td:
            store = open_store(pathlib.Path(td), manifest)
            outcome = run_sweep(
                manifest, store, workers=bench_workers(2), compact=False
            )
            assert outcome.complete
            return store.load_aggregate()

    _, batched_s, aggregate, sweep_s = _race(_batched(specs), sweep)
    assert aggregate["trials"] == NUM_TRIALS
    sweep_rate = NUM_TRIALS / sweep_s
    floor_rate = SWEEP_VS_BATCHED_FLOOR * NUM_TRIALS / batched_s
    print(f"sweep {sweep_rate:.1f} trials/s (floor {floor_rate:.1f})")
    assert sweep_rate >= floor_rate


def test_streaming_floor():
    from repro.net import butterfly
    from repro.traffic import BernoulliSource, make_stream_router, run_stream

    net = butterfly(4)

    def one_run():
        return run_stream(
            net,
            BernoulliSource(net, 0.2, seed=11, horizon=None),
            make_stream_router("greedy", seed=12),
            max_steps=4000,
            path_seed=13,
            engine_seed=14,
            max_in_flight=net.num_edges,
        )

    # Warm up, then batch enough runs per sample to fill about 0.5 s.
    _, elapsed = _timed(one_run)
    inner = max(1, int(0.5 / elapsed))
    best = 0.0
    for _ in range(3):
        summaries, elapsed = _timed(lambda: [one_run() for _ in range(inner)])
        assert all(s.delivered > 0 for s in summaries)
        best = max(best, sum(s.steps for s in summaries) / elapsed)
    print(f"stream {best:.1f} steps/s (floor {STREAMING_FLOOR_STEPS_PER_SEC})")
    assert best >= STREAMING_FLOOR_STEPS_PER_SEC
