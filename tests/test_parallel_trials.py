"""Walker/serial sweep equivalence and engine fast-path regression pins.

Two safety nets for the performance subsystem:

* a sweep run by several walker processes (``run_sweep(workers=2)``) must
  store bytes identical to a one-process run's, and its records must equal
  a cold per-trial loop (:func:`~repro.scenarios.run_trial` on each spec)
  for the same specs (every trial's RNG streams derive from its own seed,
  so the walker that ran a shard can never leak into results);
* the engine's fast-path implementation (geometry cache, slot-id encoding,
  scratch reuse, inlined moves) must preserve the reference semantics —
  pinned here as the exact trace-event sequence and golden outcomes of
  fixed-seed runs recorded before the fast path landed.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import time
from dataclasses import asdict

import pytest

import repro.experiments.batch as batch_mod
import repro.sweeps.dispatch as dispatch_mod
from repro.baselines import NaivePathRouter
from repro.errors import ReproError
from repro.experiments import (
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
    derive_sweep_seeds,
    run_frontier_trial,
    run_spec_trials,
    sweep_specs,
)
from repro.experiments.batch import LOCKSTEP_MIN_TRIALS, TrialExecutor
from repro.io import result_to_dict
from repro.net import NetworkGeometry, butterfly, mesh, slot_direction, slot_edge, slot_id
from repro.scenarios import build_problem, run_trial
from repro.sim import Engine, TraceRecorder
from repro.sweeps import (
    SweepManifest,
    SweepStore,
    manifest_from_specs,
    open_store,
    run_sweep,
)
from repro.types import Direction


def _walked_records(walked, manifest, **kwargs):
    """Result dicts of a cold per-trial loop over ``manifest`` and of its
    ``workers=2`` store (which ``walked`` checks against ``workers=1``)."""
    store, _ = walked(manifest, **kwargs)
    cold = [result_to_dict(run_trial(spec).result) for spec in manifest.specs()]
    stored = list(store.iter_records())
    assert [r["spec_hash"] for r in stored] == list(manifest.trial_hashes())
    return cold, [r["result"] for r in stored]


def _finalizers(monkeypatch, path, pause=0.0):
    """Log ``pid shard`` to ``path`` for every shard finalized, in any
    walker process; each finalize then waits ``pause`` seconds."""
    finalize = SweepStore.finalize_shard

    def logged(self, writer):
        target = finalize(self, writer)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {writer.shard}\n")
        time.sleep(pause)
        return target

    monkeypatch.setattr(SweepStore, "finalize_shard", logged)
    return lambda: [
        tuple(map(int, line.split())) for line in path.read_text().splitlines()
    ]


class TestSerialParallelEquivalence:
    SEEDS = list(range(LOCKSTEP_MIN_TRIALS + 4))

    def test_frontier_trials_identical(self, walked):
        # Unpinned: every trial builds its own instance from its seed.
        base = butterfly_random_spec(3, seed=0, m=8, w_factor=8.0)
        base = dataclasses.replace(base, workload_params={})
        manifest = SweepManifest(base, tuple(self.SEEDS), shard_size=2)
        serial, walked_out = _walked_records(walked, manifest, lockstep=False)
        assert serial == walked_out

    def test_fixed_problem_trials_identical(self, walked):
        specs = sweep_specs(
            butterfly_random_spec(3, seed=99, m=8, w_factor=8.0),
            len(self.SEEDS),
        )
        manifest = manifest_from_specs(specs, shard_size=2)
        serial, walked_out = _walked_records(walked, manifest, lockstep=False)
        assert serial == walked_out

    def test_build_heavy_batched_trials_identical(self, walked):
        # The cold per-trial path (fresh build, reference engine) against
        # the production lockstep path and a two-walker sweep on the
        # build-heavy deep_random instance.
        specs = sweep_specs(deep_random_spec(20, 6, 12, seed=2026), 12)
        lockstep = run_spec_trials(specs)
        assert all(r.executor.startswith("lockstep") for r in lockstep)
        manifest = manifest_from_specs(specs, shard_size=LOCKSTEP_MIN_TRIALS)
        expected, walked_out = _walked_records(walked, manifest)
        assert walked_out == expected
        assert [result_to_dict(r.result) for r in lockstep] == expected

    @pytest.mark.parametrize(
        "backend", ["naive", "greedy"], ids=["_naive_factory", "_greedy_factory"]
    )
    def test_router_trials_identical(self, backend, walked):
        pinned = butterfly_random_spec(
            3, seed=5, backend=backend, max_steps=3000
        ).with_pinned_scenario()
        specs = [pinned.with_seed(seed) for seed in self.SEEDS]
        manifest = manifest_from_specs(specs, shard_size=2)
        serial, walked_out = _walked_records(walked, manifest, lockstep=False)
        assert serial == walked_out


class TestParallelHelpers:
    def test_walkers_are_capped_by_cpus_and_pending_shards(
        self, tmp_path, monkeypatch
    ):
        """Walkers are capped by the usable CPUs and by the pending
        shards: here every shard is finalized in this process."""
        manifest = manifest_from_specs(
            sweep_specs(butterfly_random_spec(3, seed=5), 4), shard_size=2
        )
        log = _finalizers(monkeypatch, tmp_path / "finalized.log")
        monkeypatch.setattr(dispatch_mod, "WALKER_START_METHOD", "fork")
        monkeypatch.setattr(dispatch_mod, "usable_cpus", lambda: 1)
        run_sweep(manifest, open_store(tmp_path / "a", manifest), workers=4)
        monkeypatch.setattr(dispatch_mod, "usable_cpus", lambda: 8)
        single = manifest_from_specs(
            sweep_specs(butterfly_random_spec(3, seed=5), 2), shard_size=2
        )
        run_sweep(single, open_store(tmp_path / "b", single), workers=4)
        assert {pid for pid, _ in log()} == {os.getpid()}
        assert len(log()) == manifest.num_shards + 1

    def test_derive_sweep_seeds_is_stable(self):
        a = derive_sweep_seeds(42, 5)
        b = derive_sweep_seeds(42, 5)
        assert a == b
        assert len(set(a)) == 5
        assert derive_sweep_seeds(43, 5) != a


class TestBatchedDispatch:
    """The trial executor (repro.experiments.batch) and the sweep walkers
    that spread it over processes (repro.sweeps.dispatch)."""

    def _specs(self, count, seed=5):
        return sweep_specs(
            butterfly_random_spec(3, seed=seed, m=8, w_factor=8.0), count
        )

    def test_small_batch_auto_matches_cold_serial(self):
        specs = self._specs(6, seed=9)
        cold = [run_trial(spec) for spec in specs]
        auto = run_spec_trials(specs)
        assert [asdict(a.result) for a in cold] == [
            asdict(b.result) for b in auto
        ]

    def test_walked_sweep_identical_to_cold_serial(self, walked):
        specs = self._specs(LOCKSTEP_MIN_TRIALS + 3)
        serial = run_spec_trials(specs, lockstep=False)
        cold, walked_out = _walked_records(
            walked, manifest_from_specs(specs, shard_size=3), lockstep=False
        )
        assert [result_to_dict(r.result) for r in serial] == cold == walked_out
        # Executor records are data-only: no problem rides on them.
        assert all(r.problem is None for r in serial)

    def test_pool_preserves_order_and_progress(self, walked):
        specs = self._specs(LOCKSTEP_MIN_TRIALS + 4, seed=3)
        seen = []
        records = run_spec_trials(specs, lockstep=False, emit=seen.append)
        assert records == []
        assert [r.spec.content_hash() for r in seen] == [
            s.content_hash() for s in specs
        ]
        store, _ = walked(
            manifest_from_specs(specs, shard_size=2), lockstep=False
        )
        assert [r["spec_hash"] for r in store.iter_records()] == [
            s.content_hash() for s in specs
        ]


class TestWalkers:
    """``run_sweep(workers=k)``: k processes walk one store's shards."""

    def _manifest(self, shards):
        specs = sweep_specs(
            butterfly_random_spec(3, seed=7, m=8, w_factor=8.0),
            shards * LOCKSTEP_MIN_TRIALS,
        )
        return manifest_from_specs(specs, shard_size=LOCKSTEP_MIN_TRIALS)

    def test_two_walkers_each_finalize_a_shard(
        self, tmp_path, walkers, monkeypatch
    ):
        manifest = self._manifest(4)
        log = _finalizers(monkeypatch, tmp_path / "finalized.log", pause=0.3)
        store = open_store(tmp_path / "s", manifest)
        outcome = run_sweep(manifest, store, workers=2, compact=False)
        finalized = log()
        assert sorted(shard for _, shard in finalized) == [0, 1, 2, 3]
        assert len({pid for pid, _ in finalized}) == 2
        assert outcome.complete and outcome.trials_executed == 24
        assert [s.status for s in outcome.shards] == ["done"] * 4
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, compact=False)
        for shard in manifest.shard_ids():
            assert store.shard_bytes(shard) == serial.shard_bytes(shard)

    def test_a_failing_walker_reaches_the_caller(
        self, tmp_path, walkers, monkeypatch
    ):
        manifest = self._manifest(4)
        parent = os.getpid()
        run_chunk = TrialExecutor.run_chunk

        def failing(self, specs, emit=None):
            if os.getpid() != parent:
                raise ReproError("walker failed")
            time.sleep(0.3)
            return run_chunk(self, specs, emit)

        monkeypatch.setattr(TrialExecutor, "run_chunk", failing)
        store = open_store(tmp_path / "s", manifest)
        with pytest.raises(ReproError, match="walker failed"):
            run_sweep(manifest, store, workers=2)
        assert not list(store.leases_dir.iterdir())
        assert not store.aggregate_path.exists()


    def test_one_walker_imports_no_process_machinery(self, tmp_path):
        import subprocess
        import sys

        import repro

        code = (
            "import sys\n"
            "from repro.experiments import butterfly_random_spec, sweep_specs\n"
            "from repro.sweeps import manifest_from_specs, open_store, run_sweep\n"
            "m = manifest_from_specs(\n"
            "    sweep_specs(butterfly_random_spec(3, seed=7), 8), shard_size=2\n"
            ")\n"
            f"store = open_store({str(tmp_path)!r}, m)\n"
            "assert run_sweep(m, store, workers=1).complete\n"
            "print([n for n in ('multiprocessing', 'concurrent.futures')"
            " if n in sys.modules])\n"
        )
        src = str(pathlib.Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_spawned_walkers_match_one_walker(self, tmp_path, monkeypatch):
        """A child walker gets only picklable data, so it also runs from a
        fresh interpreter.  This process gathers small runs and finalizes
        slowly, so the spawned child finalizes shards too; the stores
        equal a one-walker run's."""
        monkeypatch.setattr(dispatch_mod, "WALKER_START_METHOD", "spawn")
        monkeypatch.setattr(dispatch_mod, "usable_cpus", lambda: 8)
        monkeypatch.setattr(
            batch_mod, "LOCKSTEP_MAX_TRIALS", LOCKSTEP_MIN_TRIALS
        )
        manifest = manifest_from_specs(
            sweep_specs(butterfly_random_spec(3, seed=7), 40), shard_size=1
        )
        store = open_store(tmp_path / "spawned", manifest)
        here = _finalizers(monkeypatch, tmp_path / "here.log", pause=0.1)
        outcome = run_sweep(manifest, store, workers=2, lockstep=False)
        assert outcome.complete and outcome.trials_executed == 40
        assert 0 < len(here()) < manifest.num_shards
        monkeypatch.undo()
        serial = open_store(tmp_path / "serial", manifest)
        run_sweep(manifest, serial, lockstep=False)
        assert store.compacted_path.read_bytes() == (
            serial.compacted_path.read_bytes()
        )
        assert store.aggregate_path.read_bytes() == (
            serial.aggregate_path.read_bytes()
        )

    def test_an_ambient_session_keeps_the_walk_here(
        self, tmp_path, walkers, monkeypatch
    ):
        """Counters and traces of an ambient telemetry session live in
        this process, so under one the walk starts no child."""
        from repro.telemetry import TelemetrySession

        manifest = self._manifest(4)
        log = _finalizers(monkeypatch, tmp_path / "finalized.log")
        store = open_store(tmp_path / "s", manifest)
        with TelemetrySession():
            assert run_sweep(manifest, store, workers=2).complete
        assert {pid for pid, _ in log()} == {os.getpid()}


# The exact event stream of this fixed-seed contention-heavy run was
# recorded on the reference engine implementation (pre-fast-path); any
# change to arbitration order, RNG draw sequence, deflection matching, or
# event emission shows up as a digest mismatch.  Re-pin deliberately if
# semantics change, and say so in the commit message.
_TRACE_SHA256 = "ae4a033f9757562e3e1a34a36f38c0b6bd101c5d66d0a97c2393ddb8826402c0"


def _trace_fingerprint(events):
    canonical = [
        (
            e.time,
            e.kind.value,
            e.packet,
            e.node,
            e.edge,
            None if e.direction is None else int(e.direction),
            e.detail,
        )
        for e in events
    ]
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


class TestEngineFastPathRegression:
    def test_trace_event_sequence_is_pinned(self):
        problem = build_problem(butterfly_hotrow_spec(3, 8, seed=5))
        trace = TraceRecorder()
        engine = Engine(
            problem, NaivePathRouter(), seed=42, observers=[trace.on_event]
        )
        result = engine.run(500)
        assert result.all_delivered
        assert result.makespan == 9
        assert result.total_deflections == 12
        assert result.unsafe_deflections == 0
        assert len(trace.events) == 64
        assert _trace_fingerprint(trace.events) == _TRACE_SHA256

    def test_frontier_golden_run_is_pinned(self):
        problem = build_problem(butterfly_hotrow_spec(3, 8, seed=5))
        record = run_frontier_trial(problem, seed=9, m=8, w_factor=8.0)
        result = record.result
        assert result.all_delivered
        assert result.makespan == 11779
        assert result.total_deflections == 4
        assert result.delivery_times == [
            11779, 3587, 7687, 7683, 3587, 7683, 7685, 3589,
        ]


class TestNetworkGeometry:
    @pytest.mark.parametrize("net", [butterfly(3), mesh(4, 5)])
    def test_tables_match_network_methods(self, net):
        geo = net.geometry()
        assert isinstance(geo, NetworkGeometry)
        assert net.geometry() is geo  # cached, built once
        assert geo.num_nodes == net.num_nodes
        assert geo.num_edges == net.num_edges
        for e in net.edges():
            assert (geo.edge_src[e], geo.edge_dst[e]) == net.edge_endpoints(e)
        for v in net.nodes():
            assert geo.in_edges[v] == net.in_edges(v)
            assert geo.out_edges[v] == net.out_edges(v)
            assert geo.node_levels[v] == net.level(v)
            for e, s in zip(geo.in_edges[v], geo.in_slot_ids[v]):
                assert s == slot_id(e, Direction.BACKWARD)
                assert geo.traversal_slot(e, v) == s
            for e, s in zip(geo.out_edges[v], geo.out_slot_ids[v]):
                assert s == slot_id(e, Direction.FORWARD)
                assert geo.traversal_slot(e, v) == s

    def test_slot_codec_roundtrip(self):
        for edge in (0, 1, 7, 1023):
            for direction in Direction:
                slot = slot_id(edge, direction)
                assert slot_edge(slot) == edge
                assert slot_direction(slot) is direction

    def test_geometry_survives_pickling(self):
        # Parallel trials pickle problems (and so networks) into workers.
        import pickle

        net = butterfly(3)
        net.geometry()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.geometry().edge_src == net.geometry().edge_src
        assert clone.num_edges == net.num_edges
