"""repro — Õ(Congestion + Dilation) hot-potato routing on leveled networks.

A from-scratch reproduction of Costas Busch's SPAA 2002 paper: the
frontier-frame hot-potato routing algorithm, the leveled-network and
bufferless-simulation substrates it runs on, the baselines it is compared
against, and the experiment harness that validates the paper's theorems
empirically.

Quick start::

    from repro import quick_route
    result = quick_route(seed=0)
    print(result.summary())

or assemble the pieces explicitly::

    from repro.net import butterfly
    from repro.workloads import butterfly_workloads
    from repro.paths import select_paths_bit_fixing
    from repro.core import AlgorithmParams, FrontierFrameRouter
    from repro.sim import Engine

    net = butterfly(5)
    wl = butterfly_workloads.random_end_to_end(net, seed=1)
    problem = select_paths_bit_fixing(net, wl.endpoints)
    params = AlgorithmParams.practical(problem.congestion, net.depth,
                                       problem.num_packets)
    engine = Engine(problem, FrontierFrameRouter(params, seed=2), seed=3)
    print(engine.run(params.total_steps).summary())
"""

from ._version import __version__
from . import net, paths, sim, core, baselines, workloads, analysis, viz, experiments, telemetry
from .errors import (
    ReproError,
    TopologyError,
    PathError,
    WorkloadError,
    SimulationError,
    CapacityError,
    ParameterError,
    InvariantViolation,
)
from .types import Direction, MoveKind, NodeId, EdgeId, PacketId


def quick_route(seed: int = 0, dim: int = 4):
    """Route random butterfly traffic with the paper's algorithm.

    One-call demo used by the README; returns the
    :class:`~repro.sim.RunResult`.
    """
    from .experiments import butterfly_random_spec
    from .scenarios import run

    return run(butterfly_random_spec(dim, seed=seed))


__all__ = [
    "__version__",
    "net",
    "paths",
    "sim",
    "core",
    "baselines",
    "workloads",
    "analysis",
    "viz",
    "experiments",
    "telemetry",
    "ReproError",
    "TopologyError",
    "PathError",
    "WorkloadError",
    "SimulationError",
    "CapacityError",
    "ParameterError",
    "InvariantViolation",
    "Direction",
    "MoveKind",
    "NodeId",
    "EdgeId",
    "PacketId",
    "quick_route",
]
