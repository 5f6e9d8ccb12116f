"""Tests for the scenario layer: registries, RunSpec, dispatch, cache.

The load-bearing guarantee is *legacy equivalence*: for every backend
family, ``run(spec)`` must reproduce the RunResult of the historical
hand-wired call path byte-for-byte on pinned seeds.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ReproError
from repro.net import butterfly
from repro.paths import select_paths_bit_fixing
from repro.scenarios import (
    BACKENDS,
    PATH_SELECTORS,
    TOPOLOGIES,
    WORKLOADS,
    ResultCache,
    RunSpec,
    UnknownNameError,
    build_network,
    build_problem,
    load_spec,
    run,
    run_cached,
    run_trial,
    save_spec,
)
from repro.workloads import butterfly_workloads

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

PINNED_SEED = 9041


def _spec(backend: str, seed: int = PINNED_SEED, **backend_params) -> RunSpec:
    """Butterfly(4) random end-to-end instance under the given backend."""
    return RunSpec(
        name=f"equivalence-{backend}",
        topology="butterfly",
        topology_params={"dim": 4},
        workload="bf_random_end_to_end",
        workload_params={"seed": seed},
        selector="bit_fixing",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def _legacy_problem(seed: int = PINNED_SEED):
    """The pre-registry call path for the instance `_spec` describes."""
    net = butterfly(4)
    wl = butterfly_workloads.random_end_to_end(net, seed=seed)
    return select_paths_bit_fixing(net, wl.endpoints)


# ----------------------------------------------------------------- registries


class TestRegistries:
    def test_every_registry_is_populated(self):
        assert "butterfly" in TOPOLOGIES.names()
        assert "bf_random_end_to_end" in WORKLOADS.names()
        assert "bit_fixing" in PATH_SELECTORS.names()
        for name in (
            "frontier",
            "naive",
            "greedy",
            "randgreedy",
            "storeforward",
            "random_delay",
            "bounded_buffer",
        ):
            assert name in BACKENDS.names()

    def test_aliases_resolve_to_canonical_builder(self):
        assert TOPOLOGIES.get("fattree") is TOPOLOGIES.get("fat_tree")
        assert TOPOLOGIES.get("random") is TOPOLOGIES.get("random_leveled")
        assert WORKLOADS.get("funnel") is WORKLOADS.get("funnel_through_edge")

    def test_unknown_name_lists_available_and_suggests(self):
        with pytest.raises(UnknownNameError) as excinfo:
            TOPOLOGIES.get("buterfly")
        message = str(excinfo.value)
        assert "unknown topology 'buterfly'" in message
        assert "available:" in message
        assert "(did you mean 'butterfly'?)" in message
        # Specs naming a retired backend alias fail the same way.
        for retired, canonical in (
            ("frontier_vec", "frontier"),
            ("naive_vec", "naive"),
        ):
            with pytest.raises(UnknownNameError) as excinfo:
                run(_spec(retired))
            assert f"unknown backend {retired!r}" in str(excinfo.value)
            assert f"(did you mean {canonical!r}?)" in str(excinfo.value)

    def test_unknown_name_without_close_match(self):
        with pytest.raises(UnknownNameError) as excinfo:
            BACKENDS.get("zzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_unknown_name_is_a_repro_error(self):
        with pytest.raises(ReproError):
            WORKLOADS.get("nope")

    def test_backend_metadata(self):
        assert getattr(BACKENDS.get("greedy"), "family") == "deflection"


# -------------------------------------------------------------------- RunSpec


class TestRunSpec:
    def test_json_round_trip_equality(self):
        spec = _spec("frontier", m=8, w_factor=8.0)
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_file_round_trip(self, tmp_path):
        spec = _spec("greedy")
        target = tmp_path / "spec.json"
        save_spec(spec, target)
        assert load_spec(target) == spec

    def test_name_excluded_from_content_hash(self):
        spec = _spec("frontier")
        renamed = dataclasses.replace(spec, name="something else")
        assert renamed.content_hash() == spec.content_hash()

    def test_content_differences_change_hash(self):
        spec = _spec("frontier")
        assert spec.with_seed(spec.seed + 1).content_hash() != spec.content_hash()
        other = dataclasses.replace(spec, backend="greedy")
        assert other.content_hash() != spec.content_hash()

    def test_rejects_unknown_keys(self):
        data = _spec("frontier").to_dict()
        data["surprise"] = 1
        with pytest.raises(ReproError):
            RunSpec.from_dict(data)

    def test_rejects_non_json_params(self):
        with pytest.raises(ReproError):
            RunSpec(
                topology="butterfly",
                topology_params={"dim": {1, 2}},
                workload="bf_random_end_to_end",
                backend="frontier",
            )

    def test_content_hash_stable_across_process_restarts(self):
        spec = _spec("frontier", m=8)
        code = (
            "import sys; sys.path.insert(0, {src!r});"
            "from repro.scenarios import RunSpec;"
            "print(RunSpec.from_json({json!r}).content_hash())"
        ).format(src=str(REPO_ROOT / "src"), json=spec.to_json())
        hashes = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            hashes.add(out.stdout.strip())
        assert hashes == {spec.content_hash()}


# ------------------------------------------------------------------- dispatch


class TestDispatch:
    def test_build_network_and_problem(self):
        spec = _spec("frontier")
        net = build_network(spec)
        assert net.name == "butterfly(4)"
        problem = build_problem(spec)
        legacy = _legacy_problem()
        assert [s.path for s in problem] == [s.path for s in legacy]

    def test_selector_conflict_with_path_carrying_workload(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 4},
            workload="funnel_through_edge",
            workload_params={"num_packets": 4, "seed": 3},
            selector="bottleneck",
            backend="frontier",
            seed=3,
        )
        with pytest.raises(ReproError, match="already fixes its paths"):
            build_problem(spec)

    def test_missing_workload_rejected_for_batch_backend(self):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 4},
            workload="",
            selector="none",
            backend="frontier",
        )
        with pytest.raises(
            ReproError, match="neither a workload nor an arrival process"
        ):
            build_problem(spec)

    def test_run_trial_reports_audit(self):
        record = run_trial(_spec("frontier", audit=True))
        assert record.audit is not None and record.audit.ok
        assert record.ok


# ----------------------------------------------------- legacy byte-equality
#
# One case per backend family.  Each legacy() closure reproduces the exact
# pre-registry call path (same seed derivations) and must return the same
# RunResult, field for field, as the dispatcher.


def _legacy_frontier():
    from repro.experiments.runner import run_frontier_trial

    return run_frontier_trial(_legacy_problem(), seed=PINNED_SEED).result


def _legacy_deflection(router_factory):
    from repro.experiments.configs import baseline_budget
    from repro.experiments.runner import run_router_trial

    problem = _legacy_problem()
    return run_router_trial(
        problem, router_factory, PINNED_SEED, baseline_budget(problem)
    )


def _naive(router_seed):
    from repro.baselines import NaivePathRouter

    return NaivePathRouter()


def _greedy(router_seed):
    from repro.baselines import GreedyHotPotatoRouter

    return GreedyHotPotatoRouter(seed=router_seed)


def _randgreedy(router_seed):
    from repro.baselines import RandomizedGreedyRouter

    return RandomizedGreedyRouter(seed=router_seed)


def _legacy_storeforward():
    from repro.baselines import StoreForwardScheduler

    return StoreForwardScheduler(_legacy_problem(), seed=PINNED_SEED).run()


def _legacy_random_delay():
    from repro.baselines import run_random_delay

    return run_random_delay(_legacy_problem(), alpha=1.0, seed=PINNED_SEED)


def _legacy_bounded_buffer():
    from repro.baselines import BoundedBufferScheduler

    return BoundedBufferScheduler(
        _legacy_problem(), buffer_size=2, seed=PINNED_SEED
    ).run()


def _dynamic_spec(greedy: bool) -> RunSpec:
    from repro.experiments import dynamic_spec

    return dynamic_spec(4, rate=0.3, horizon=120, seed=PINNED_SEED, greedy=greedy)


def _legacy_dynamic(greedy: bool):
    # Arrivals and paths from the spec's derived seeds, then the deflection
    # backends' router/engine seeds; the engine gates on the schedule the
    # problem carries.
    from repro.baselines import GreedyHotPotatoRouter, NaivePathRouter
    from repro.experiments.configs import baseline_budget
    from repro.rng import stable_hash_seed
    from repro.sim import Engine
    from repro.traffic import (
        BernoulliSource,
        collect_arrivals,
        problem_from_arrivals,
    )

    spec = _dynamic_spec(greedy)
    net = butterfly(4)
    source = BernoulliSource(net, 0.3, seed=spec.arrival_seed(), horizon=120)
    problem, _ = problem_from_arrivals(
        net, collect_arrivals(source), seed=spec.selector_seed()
    )
    if greedy:
        router = GreedyHotPotatoRouter(seed=stable_hash_seed(PINNED_SEED, 4))
    else:
        router = NaivePathRouter()
    engine = Engine(problem, router, seed=stable_hash_seed(PINNED_SEED, 5))
    return engine.run(baseline_budget(problem))


EQUIVALENCE_CASES = {
    "frontier": (_spec("frontier"), _legacy_frontier),
    "naive": (_spec("naive"), lambda: _legacy_deflection(_naive)),
    "greedy": (_spec("greedy"), lambda: _legacy_deflection(_greedy)),
    "randgreedy": (_spec("randgreedy"), lambda: _legacy_deflection(_randgreedy)),
    "storeforward": (_spec("storeforward"), _legacy_storeforward),
    "random_delay": (_spec("random_delay"), _legacy_random_delay),
    "bounded_buffer": (
        _spec("bounded_buffer", buffer_size=2),
        _legacy_bounded_buffer,
    ),
    "dynamic_naive": (_dynamic_spec(False), lambda: _legacy_dynamic(False)),
    "dynamic_greedy": (_dynamic_spec(True), lambda: _legacy_dynamic(True)),
}


class TestLegacyEquivalence:
    @pytest.mark.parametrize("family", sorted(EQUIVALENCE_CASES))
    def test_run_spec_matches_legacy_call_path(self, family):
        spec, legacy = EQUIVALENCE_CASES[family]
        via_spec = run(spec)
        reference = legacy()
        assert dataclasses.asdict(via_spec) == dataclasses.asdict(reference)

    def test_equivalence_is_byte_level(self):
        spec, legacy = EQUIVALENCE_CASES["frontier"]
        blob_spec = json.dumps(dataclasses.asdict(run(spec)), sort_keys=True)
        blob_legacy = json.dumps(dataclasses.asdict(legacy()), sort_keys=True)
        assert blob_spec == blob_legacy


# ---------------------------------------------------------------------- cache


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("naive")
        first = run_cached(spec, cache=cache)
        assert not first.cached
        second = run_cached(spec, cache=cache)
        assert second.cached
        assert dataclasses.asdict(second.result) == dataclasses.asdict(
            first.result
        )

    def test_cache_keyed_by_content_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("naive")
        run_cached(spec, cache=cache)
        assert cache.path_for(spec).exists()
        assert cache.path_for(spec).name == f"{spec.content_hash()}.json"
        # A different spec does not hit the first spec's entry.
        other = run_cached(spec.with_seed(spec.seed + 1), cache=cache)
        assert not other.cached

    def test_rename_still_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("naive")
        run_cached(spec, cache=cache)
        renamed = dataclasses.replace(spec, name="another label")
        assert run_cached(renamed, cache=cache).cached

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("naive")
        run_cached(spec, cache=cache)
        cache.path_for(spec).write_text("{not json", encoding="utf-8")
        again = run_cached(spec, cache=cache)
        assert not again.cached
        assert run_cached(spec, cache=cache).cached

    def test_hit_restores_the_audit_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("frontier", audit=True, m=5)
        first = run_cached(spec, cache=cache)
        assert not first.cached and first.audit is not None
        second = run_cached(spec, cache=cache)
        assert second.cached
        assert second.audit == first.audit
        assert second.audit.summary() == first.audit.summary()

    def test_audited_record_without_report_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("frontier", audit=True)
        first = run_cached(spec, cache=cache)
        # A record stored without its report cannot answer an audited spec.
        cache.store(spec, first.result)
        again = run_cached(spec, cache=cache)
        assert not again.cached and again.audit == first.audit
        assert run_cached(spec, cache=cache).cached

    def test_indented_record_still_loads(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("frontier", audit=True, m=5)
        first = run_cached(spec, cache=cache)
        path = cache.path_for(spec)
        assert "\n" not in path.read_text(encoding="utf-8")
        # The indented layout records had before they were written compact.
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
        assert cache.load_payload(spec.content_hash()) == payload
        result, timings, audit = cache.load_record(spec)
        assert dataclasses.asdict(result) == dataclasses.asdict(first.result)
        assert timings == payload.get("timings")
        assert audit == first.audit

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cached(_spec("naive"), cache=cache)
        assert cache.clear() == 1
        assert not run_cached(_spec("naive"), cache=cache).cached

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache.default()
        assert pathlib.Path(cache.root) == tmp_path / "envcache"


# ------------------------------------------------------- scenario warm cache


class TestScenarioWarmCache:
    def test_pinning_preserves_scenario_hash(self):
        spec = _spec("frontier", m=8, w_factor=8.0)
        pinned = spec.with_pinned_scenario()
        # Pinning resolves component seeds to the values the builders were
        # going to receive anyway, so the scenario content is unchanged...
        assert pinned.scenario_hash() == spec.scenario_hash()
        # ...but the content hash differs (the params now carry the seeds).
        assert pinned.content_hash() != spec.content_hash()

    def test_master_seed_only_reaches_backend_once_pinned(self):
        spec = _spec("frontier", m=8, w_factor=8.0)
        pinned = spec.with_pinned_scenario()
        # Unpinned, the master seed derives the component seeds, so a
        # re-seed changes the scenario; pinned, it only feeds the backend.
        assert spec.with_seed(1234).scenario_hash() != spec.scenario_hash()
        assert pinned.with_seed(1234).scenario_hash() == spec.scenario_hash()

    def test_backend_excluded_from_scenario_hash(self):
        assert (
            _spec("frontier", m=8).scenario_hash()
            == _spec("naive").scenario_hash()
        )

    def test_scenario_content_changes_hash(self):
        spec = _spec("frontier")
        other = dataclasses.replace(spec, topology_params={"dim": 3})
        assert other.scenario_hash() != spec.scenario_hash()

    def test_sweep_specs_share_one_problem_build(self):
        from repro.experiments import sweep_specs
        from repro.scenarios import ScenarioCache

        specs = sweep_specs(_spec("frontier", m=8, w_factor=8.0), 4)
        cache = ScenarioCache()
        problems = [cache.problem_for(s) for s in specs]
        assert all(p is problems[0] for p in problems)
        stats = cache.stats()
        assert stats["problems"]["size"] == 1
        assert stats["networks"]["size"] == 1
        assert stats["problems"]["hits"] == len(specs) - 1
        assert stats["networks"]["misses"] == 1

    def test_warm_and_cold_records_are_byte_identical(self):
        from dataclasses import asdict

        from repro.scenarios import ScenarioCache

        warm = ScenarioCache()
        for seed in (1, 2, 3):
            spec = _spec("frontier", seed=seed, m=8, w_factor=8.0)
            cold = run_trial(spec)
            warmed = run_trial(spec, warm=warm)
            assert asdict(cold.result) == asdict(warmed.result)

    def test_lru_eviction_respects_capacity(self):
        from repro.scenarios import ScenarioCache

        cache = ScenarioCache(capacity=2)
        specs = [_spec("frontier", seed=s) for s in (1, 2, 3)]
        for spec in specs:
            cache.problem_for(spec)
        assert cache.stats()["problems"]["size"] == 2
        # Least recently used (seed=1) was evicted: re-fetch rebuilds the
        # problem.  butterfly ignores its seed, so the one shared network
        # survives and the rebuild reuses it.
        before = cache.stats()
        cache.problem_for(specs[0])
        after = cache.stats()
        assert after["problems"]["misses"] == before["problems"]["misses"] + 1
        assert after["networks"]["misses"] == before["networks"]["misses"]
        assert after["networks"]["size"] == 1

    @staticmethod
    def _unpinned(topology, topology_params, seed):
        return RunSpec(
            topology=topology,
            topology_params=topology_params,
            workload="random_many_to_one",
            workload_params={"num_packets": 6},
            backend="frontier",
            seed=seed,
        )

    @pytest.mark.parametrize(
        "topology, params, shared",
        [
            ("butterfly", {"dim": 3}, True),
            ("mesh", {"rows": 4}, True),
            ("random_leveled", {"width": 4, "depth": 4}, False),
        ],
    )
    def test_network_reuse_across_seeds(self, topology, params, shared):
        """Unpinned specs over a seed-free topology share one network;
        a seeded topology gets one per seed.  Records match the cold
        path either way."""
        from dataclasses import asdict

        from repro.scenarios import ScenarioCache

        specs = [self._unpinned(topology, params, seed) for seed in (1, 2, 3)]
        assert len({s.scenario_hash() for s in specs}) == 3
        cache = ScenarioCache()
        nets = [cache.network_for(s) for s in specs]
        built = 1 if shared else len(specs)
        assert len({id(net) for net in nets}) == built
        assert cache.stats()["networks"]["misses"] == built
        for spec, net in zip(specs, nets):
            warm = run_trial(spec, warm=cache)
            assert warm.problem.net is net
            assert asdict(run_trial(spec).result) == asdict(warm.result)

    def test_only_marked_topologies_drop_the_seed(self, monkeypatch):
        """Every built-in but ``random_leveled`` ignores its seed and says
        so; an unmarked (e.g. third-party) builder keeps the seed in its
        network key."""
        from repro.scenarios.cache import _network_key

        for name in TOPOLOGIES.names():
            marked = getattr(TOPOLOGIES.get(name), "deterministic", False)
            assert marked is (name != "random_leveled"), name
        monkeypatch.setitem(
            TOPOLOGIES._entries,
            "third_party_butterfly",
            lambda *, dim, seed=None: butterfly(int(dim)),
        )
        for topology, shared in (("butterfly", True), ("third_party_butterfly", False)):
            a, b = (self._unpinned(topology, {"dim": 3}, s) for s in (1, 2))
            assert (_network_key(a) == _network_key(b)) is shared
            # Pinning resolves the seed the builder would get anyway.
            assert _network_key(a) == _network_key(a.with_pinned_scenario())
