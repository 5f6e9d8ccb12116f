"""Trial setup-cost microbenchmarks: where the non-engine time goes.

Not a paper experiment — these separate the fixed per-trial construction
costs that the warm scenario cache amortizes (network build, geometry
precompute, path selection) from the cost that every trial must pay
regardless (engine init), so the batching layer's savings stay explainable.
Two cases time the build an unpinned (instance) sweep pays for every seed,
since no cache helps there: a fresh ``random_leveled`` network per seed,
and bit-fixing path selection for ``butterfly_random(6)`` over its shared
butterfly.  The lockstep array kernel adds its own split: the cold
struct-of-arrays build (geometry tables + per-packet path packing) vs the
warm template tiling that repeat batches on a cached problem actually pay,
vs full ``LockstepEngine`` construction. The final case times a warm
:class:`~repro.scenarios.ScenarioCache` hit — the per-trial setup cost
under batched execution.

With ``--benchmark-disable`` every case runs once and only its assertions
count, which is how the CI tier-1 job runs this file.
"""

import itertools

import pytest

from repro.core import AlgorithmParams, FrontierFrameRouter
from repro.experiments import butterfly_random_spec, deep_random_spec
from repro.paths import select_paths_bit_fixing
from repro.scenarios import ScenarioCache, build_network, build_problem


#: The build-heavy catalog instance (random leveled network + bottleneck
#: selection) — same scenario the trial-throughput bench sweeps.
SPEC = deep_random_spec(20, 6, 12, seed=2026)


@pytest.fixture(scope="module")
def prebuilt_network():
    return build_network(SPEC)


@pytest.fixture(scope="module")
def prebuilt_problem(prebuilt_network):
    return build_problem(SPEC, net=prebuilt_network)


def test_setup_network_build(benchmark):
    net = benchmark(build_network, SPEC)
    assert net.depth == 20


def test_setup_network_build_per_seed(benchmark):
    """A fresh ``random_leveled`` network for every call, as an unpinned
    sweep builds one per trial seed."""
    seeds = itertools.count()

    def build():
        return build_network(SPEC.with_seed(next(seeds)))

    net = benchmark(build)
    assert net.depth == 20
    assert min(net.out_degree(v) for v in net.nodes_at_level(0)) >= 2


def test_setup_bit_fixing_selection(benchmark):
    """Bit-fixing paths for one ``butterfly_random(6)`` workload over the
    prebuilt butterfly every seed of that cell shares."""
    spec = butterfly_random_spec(6)
    net = build_network(spec)
    endpoints = [(p.source, p.destination) for p in build_problem(spec, net=net)]

    problem = benchmark(select_paths_bit_fixing, net, endpoints)
    assert problem.num_packets == 64
    assert problem.dilation == 6


def test_setup_geometry_precompute(benchmark):
    """Dense lookup-table construction, isolated from the topology build.

    ``LeveledNetwork.geometry()`` memoizes, so each round rebuilds the
    network first and only the geometry call is timed.
    """

    def fresh():
        return build_network(SPEC)

    def geometry(net):
        return net.geometry()

    geo = benchmark.pedantic(
        geometry, setup=lambda: ((fresh(),), {}), rounds=20, iterations=1
    )
    assert geo.num_edges > 0


def test_setup_path_selection(benchmark, prebuilt_network):
    """Workload generation + bottleneck path selection on a fixed network."""
    problem = benchmark(build_problem, SPEC, net=prebuilt_network)
    assert problem.num_packets == 12


def test_setup_engine_init(benchmark, prebuilt_problem):
    """Engine construction with prebuilt geometry: the irreducible per-trial
    setup that even a warm cache hit pays."""
    from repro.sim import Engine

    params = AlgorithmParams.practical(
        prebuilt_problem.congestion,
        prebuilt_problem.net.depth,
        prebuilt_problem.num_packets,
    )
    geometry = prebuilt_problem.net.geometry()

    def init():
        return Engine(
            prebuilt_problem,
            FrontierFrameRouter(params, seed=1),
            seed=2,
            geometry=geometry,
        )

    engine = benchmark(init)
    assert engine.num_active == 0


def test_setup_lockstep_arrays_cold_build(benchmark, prebuilt_problem):
    """Kernel array-build split, cold: geometry tables + path packing.

    Both layers cache (``GeometryArrays`` on the geometry, the one-trial
    :class:`StackedPacketArrays` template on the problem), so each round
    evicts them first — this is the one-time cost a fresh problem pays
    before any ``LockstepEngine`` can step.
    """
    from repro.sim import GeometryArrays
    from repro.sim.soa import StackedPacketArrays

    geometry = prebuilt_problem.net.geometry()

    def cold_build():
        try:
            del prebuilt_problem._soa_template
        except AttributeError:
            pass
        geo_arrays = GeometryArrays(geometry)
        packets = StackedPacketArrays.from_problems([prebuilt_problem])
        return geo_arrays, packets

    _, packets = benchmark(cold_build)
    assert packets.num_packets == 12


def test_setup_lockstep_arrays_warm_copy(benchmark, prebuilt_problem):
    """Kernel array-build split, warm: tiling the cached template.

    Warm-pool sweeps reuse one problem across seeds, so this — not the
    cold build above — is the array cost every repeat batch pays.
    """
    from repro.sim.soa import StackedPacketArrays

    # A problem serving two trials keeps its template: prime the cache.
    StackedPacketArrays.from_problems([prebuilt_problem] * 2)

    packets = benchmark(StackedPacketArrays.from_problems, [prebuilt_problem])
    assert packets.num_packets == 12


def test_setup_lockstep_engine_init(benchmark, prebuilt_problem):
    """Full one-trial ``LockstepEngine`` construction with warm array
    caches — the array-kernel analog of ``test_setup_engine_init``."""
    from repro.sim.engine_lockstep import LockstepEngine

    params = AlgorithmParams.practical(
        prebuilt_problem.congestion,
        prebuilt_problem.net.depth,
        prebuilt_problem.num_packets,
    )
    prebuilt_problem.net.geometry().arrays()  # prime the geometry cache

    def init():
        return LockstepEngine.frontier(
            [prebuilt_problem], [params], router_seeds=[1], engine_seeds=[2]
        )

    engine = benchmark(init)
    assert int(engine.num_active.sum()) == 0


def test_setup_warm_cache_hit(benchmark):
    """A warm ``problem_for`` hit must be orders cheaper than a cold build."""
    cache = ScenarioCache()
    first = cache.problem_for(SPEC)
    cold = cache.stats()

    problem = benchmark(cache.problem_for, SPEC)
    assert problem is first
    # Every timed call hit the problem table, so none reached the networks.
    assert cache.stats()["problems"]["misses"] == cold["problems"]["misses"]
    assert cache.stats()["networks"] == cold["networks"]
