#!/usr/bin/env python3
"""Anatomy of a run: watch the frontier-frames carry packets up the levels.

Renders (a) the Figure-2 film strip of the frame schedule, (b) the target
level receding within one phase, and (c) a live per-level occupancy heat
strip from an actual routed instance — the packets visibly ride their
frames from level 0 to level L.

Run:  python examples/frame_anatomy.py [depth] [seed]
"""

import sys

from repro.core import (
    AlgorithmParams,
    FrameGeometry,
    FrontierFrameRouter,
)
from repro.experiments import deep_random_spec
from repro.scenarios import build_problem
from repro.sim import Engine
from repro.viz import (
    OccupancySampler,
    frame_film_strip,
    occupancy_strip,
    target_schedule_strip,
)


def main(depth: int = 24, seed: int = 3) -> None:
    problem = build_problem(deep_random_spec(depth, 6, 14, seed=seed))
    params = AlgorithmParams.practical(
        problem.congestion, depth, problem.num_packets, m=6, w_factor=6.0
    )
    geometry = FrameGeometry(params)

    print("1. the frame schedule (Figure 2): frames march one level per "
          "phase, pipelined m apart\n")
    print(frame_film_strip(geometry, 0, min(24, params.total_phases)))

    print("\n2. inside one phase: the target level recedes one inner level "
          "per round\n")
    print(target_schedule_strip(geometry, 0, phase=min(12, depth)))

    print("\n3. live run: per-level packet occupancy over time "
          f"({problem.describe()})\n")
    router = FrontierFrameRouter(params, seed=seed + 1)
    engine = Engine(problem, router, seed=seed + 2,
                    enable_fast_forward=False)
    sampler = OccupancySampler(every=params.w)
    sampler.install(engine)
    result = engine.run(params.total_steps)
    assert result.all_delivered, result.summary()
    print(occupancy_strip(sampler, max_rows=40))
    print(f"\nall {result.num_packets} packets delivered by t={result.makespan} "
          f"({result.total_deflections} deflections, all backward+safe: "
          f"{result.unsafe_deflections == 0})")


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
