"""Trial setup-cost microbenchmarks: where the non-engine time goes.

Not a paper experiment — these separate the fixed per-trial construction
costs that the warm scenario cache amortizes (network build, geometry
precompute, path selection) from the cost that every trial must pay
regardless (engine init), so the batching layer's savings stay explainable.
The vectorized kernel adds its own split: the cold struct-of-arrays build
(geometry tables + per-packet path packing) vs the warm template copy that
repeat trials on a cached problem actually pay, vs full ``VecEngine``
construction. The final case times a warm
:class:`~repro.scenarios.ScenarioCache` hit — the per-trial setup cost
under batched execution.
"""

import pytest

from repro.core import AlgorithmParams, FrontierFrameRouter
from repro.experiments import deep_random_spec
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


def test_setup_vec_arrays_cold_build(benchmark, prebuilt_problem):
    """Kernel array-build split, cold: geometry tables + path packing.

    Both layers cache (``GeometryArrays`` on the geometry,
    the :class:`PacketArrays` template on the problem), so each round
    evicts them first — this is the one-time cost a fresh problem pays
    before any ``VecEngine`` can step.
    """
    pytest.importorskip("numpy")
    from repro.sim import GeometryArrays, PacketArrays

    geometry = prebuilt_problem.net.geometry()

    def cold_build():
        try:
            del prebuilt_problem._soa_template
        except AttributeError:
            pass
        geo_arrays = GeometryArrays(geometry)
        packets = PacketArrays.from_problem(prebuilt_problem)
        return geo_arrays, packets

    _, packets = benchmark(cold_build)
    assert packets.num_packets == 12


def test_setup_vec_arrays_warm_copy(benchmark, prebuilt_problem):
    """Kernel array-build split, warm: the template ``.copy()`` per trial.

    Warm-pool sweeps reuse one problem across seeds, so this — not the
    cold build above — is the array cost every repeat trial pays.
    """
    pytest.importorskip("numpy")
    from repro.sim import PacketArrays

    PacketArrays.from_problem(prebuilt_problem)  # prime the template cache

    packets = benchmark(PacketArrays.from_problem, prebuilt_problem)
    assert packets.num_packets == 12


def test_setup_vec_engine_init(benchmark, prebuilt_problem):
    """Full ``VecEngine`` construction with warm array caches — the vec
    analog of ``test_setup_engine_init``."""
    pytest.importorskip("numpy")
    from repro.sim import VecEngine

    params = AlgorithmParams.practical(
        prebuilt_problem.congestion,
        prebuilt_problem.net.depth,
        prebuilt_problem.num_packets,
    )
    prebuilt_problem.net.geometry().arrays()  # prime the geometry cache

    def init():
        return VecEngine.frontier(
            prebuilt_problem, params, router_seed=1, seed=2
        )

    engine = benchmark(init)
    assert engine.num_active == 0


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
