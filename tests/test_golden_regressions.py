"""Golden regression tests: exact outcomes for pinned seeds.

These freeze the *behavior* of the stack — topology generation, workload
sampling, path selection, frontier-set draws, excitation coins, engine
tie-breaking — so that any unintended semantic change (a reordered RNG
draw, a different iteration order, an off-by-one in the clock) shows up as
a failing golden value rather than a silent drift.

If a change is *intentional* (e.g. a new RNG consumer in the hot loop),
re-pin the constants and say so in the commit message.
"""

import hashlib

import pytest

from repro.experiments import (
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
    run_frontier_trial,
)
from repro.scenarios import RunSpec, build_problem


class TestGoldenInstances:
    def test_butterfly_random_instance_shape(self):
        problem = build_problem(butterfly_random_spec(4, seed=1234))
        assert problem.num_packets == 16
        assert (problem.congestion, problem.dilation) == (3, 4)

    def test_hotrow_instance_shape(self):
        problem = build_problem(butterfly_hotrow_spec(5, 12, seed=1234))
        assert problem.num_packets == 12
        assert problem.dilation == 5
        assert 6 <= problem.congestion <= 12

    def test_deep_instance_shape(self):
        problem = build_problem(deep_random_spec(20, 5, 10, seed=1234))
        assert problem.net.depth == 20
        assert problem.num_packets == 10


class TestGoldenRuns:
    def test_frontier_run_is_pinned(self):
        problem = build_problem(butterfly_random_spec(4, seed=1234))
        record = run_frontier_trial(problem, seed=77, m=8, w_factor=8.0)
        result = record.result
        assert result.all_delivered
        # Golden values: re-pin deliberately if semantics change.
        assert result.makespan == 7686
        assert result.total_deflections == 3
        assert result.steps_executed + result.steps_skipped == result.makespan

    def test_two_seeds_differ(self):
        problem = build_problem(butterfly_random_spec(4, seed=1234))
        a = run_frontier_trial(problem, seed=77, m=8, w_factor=8.0).result
        b = run_frontier_trial(problem, seed=78, m=8, w_factor=8.0).result
        # Different coins, (almost surely) different micro-schedules.
        assert a.delivery_times != b.delivery_times or (
            a.total_deflections != b.total_deflections
        )


def _random_leveled_spec(workload="random_many_to_one", topology=None, **wparams):
    """An unpinned bottleneck-selected scenario on a random leveled network."""
    return RunSpec(
        topology="random_leveled",
        topology_params=topology or {"width": 6, "depth": 8},
        workload=workload,
        workload_params=wparams or {"num_packets": 8},
        selector="bottleneck",
        backend="frontier",
    )


#: The scenarios whose builds are pinned, each over 64 unpinned seeds: the
#: five bench cells, two more ``deep_random`` shapes, ``random_leveled``'s
#: degree-repair corners, the bottleneck selector under the workloads that
#: share destinations (where its DP breaks the most ties), and bit-fixing
#: over a workload seed that follows the master (the butterfly catalog
#: specs pin theirs, so each of their 64 seeds builds one instance).
GOLDEN_BUILD_SPECS = {
    "deep_random": deep_random_spec(20, 6, 12),
    "butterfly_random": butterfly_random_spec(6),
    "butterfly_hotrow": butterfly_hotrow_spec(5, 32),
    "mesh_corner_shift": mesh_corner_shift_spec(6),
    "naive_hotrow": butterfly_hotrow_spec(5, 32, backend="naive"),
    "deep_random_small": deep_random_spec(8, 3, 4),
    "deep_random_wide": deep_random_spec(12, 10, 30),
    "random_leveled_p0": _random_leveled_spec(
        topology={"width": 5, "depth": 6, "edge_probability": 0.0}
    ),
    "random_leveled_p1": _random_leveled_spec(
        topology={"width": 5, "depth": 6, "edge_probability": 1.0}
    ),
    "random_leveled_degree_above_width": _random_leveled_spec(
        topology={
            "width": 3,
            "depth": 6,
            "edge_probability": 0.3,
            "min_out_degree": 5,
            "min_in_degree": 4,
        }
    ),
    "bottleneck_hotspot": _random_leveled_spec(
        "hotspot", num_packets=10, num_hotspots=2
    ),
    "bottleneck_single_destination": _random_leveled_spec(
        "single_destination", num_packets=8
    ),
    "bottleneck_level_to_level": _random_leveled_spec(
        "level_to_level", num_packets=5, source_level=1, dest_level=7
    ),
    "bit_fixing_per_seed": RunSpec(
        topology="butterfly",
        topology_params={"dim": 5},
        workload="bf_random_end_to_end",
        selector="bit_fixing",
        backend="frontier",
    ),
}

GOLDEN_BUILD_DIGESTS = {
    "bottleneck_hotspot": (
        "c4c2df248610c6e3fd37dfea1c6451fde3ba8be0a7ccba52abcd58590576d99a"
    ),
    "bottleneck_level_to_level": (
        "a73aa6dd896317b05d853e81db279372e770371f1473da34503e3f94cb8f9478"
    ),
    "bottleneck_single_destination": (
        "9b96f2fb230aa6d5ed587a14b269f1ed7ead9f9e665f2755ee745239878e7beb"
    ),
    "bit_fixing_per_seed": (
        "b9adf1468879ac01cdbf4afcb020635b1bfe0681a43836d47ba58c61954c985b"
    ),
    "butterfly_hotrow": (
        "fe6cda060d98c01fd5a4e055813e8f4bff71ebab01ec712f2f672a23f013fbe9"
    ),
    "butterfly_random": (
        "3148de565c5a2b1a769053e495a7f7a0776b5b4cb368cd8cb910051dbe5e5115"
    ),
    "deep_random": (
        "b1bb2813a421c51eea76b1b4c312f368ada5f93864dae60611610e26fb499247"
    ),
    "deep_random_small": (
        "9d61e67f0a7a131d58ad145dd1390f9c68a29aacf6591d54e70912a4cac8921e"
    ),
    "deep_random_wide": (
        "1dfe2e284397a9a7a607c3e4387dcae6a34bb8e8b57f7d025d77aa6ca5147b3f"
    ),
    "mesh_corner_shift": (
        "0e786f2902716a0b70fa134eabe34afe72d07969c1af7d7965799decb1004ac6"
    ),
    "naive_hotrow": (
        "fe6cda060d98c01fd5a4e055813e8f4bff71ebab01ec712f2f672a23f013fbe9"
    ),
    "random_leveled_degree_above_width": (
        "af08eb88ea5dcc48b6e95d034511b4908f70a0e5ae1f88dd15803b073d1d6eaf"
    ),
    "random_leveled_p0": (
        "d0a7c8fb30d7ea763ec8cafbe164c8fcf57b83a3e5ab046e174531c22a1a7a32"
    ),
    "random_leveled_p1": (
        "5436d42dfa1ecad6ab56bb8026eade97fd71a8f33e6f68f695effd88f2dfe7b4"
    ),
}


def build_digest(spec: RunSpec, seeds: int = 64) -> str:
    """SHA-256 over the networks and problems ``spec`` builds at seeds
    ``0 .. seeds - 1``, unpinned: every component seed follows the master.

    A network contributes its name, node levels, labels and edge endpoints
    in id order; a problem each packet's source, destination and path
    edges.
    """
    digest = hashlib.sha256()
    for seed in range(seeds):
        problem = build_problem(spec.with_seed(seed))
        net = problem.net
        digest.update(
            repr(
                (
                    net.name,
                    [net.level(v) for v in net.nodes()],
                    [net.label(v) for v in net.nodes()],
                    [net.edge_endpoints(e) for e in net.edges()],
                    [(p.source, p.destination, p.path.edges) for p in problem],
                )
            ).encode()
        )
    return digest.hexdigest()


class TestGoldenBuilds:
    """Networks and paths stay byte-identical for every unpinned seed.

    The build layers (``random_leveled``, the workload draws, the
    min-bottleneck DP, bit-fixing) are optimized under the rule that every
    RNG draw and every tie-deciding iteration order stays as it was; these
    digests pin that.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_BUILD_SPECS))
    def test_build_digest_is_pinned(self, name):
        assert build_digest(GOLDEN_BUILD_SPECS[name]) == GOLDEN_BUILD_DIGESTS[name]
