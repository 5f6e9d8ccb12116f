"""Serial/parallel trial equivalence and engine fast-path regression pins.

Two safety nets for the performance subsystem:

* the pooled sweep path of :func:`~repro.experiments.run_spec_trials` must
  return records *byte-identical* to a cold serial run for the same specs
  (every trial's RNG streams derive from its own seed, so worker count can
  never leak into results);
* the engine's fast-path implementation (geometry cache, slot-id encoding,
  scratch reuse, inlined moves) must preserve the reference semantics —
  pinned here as the exact trace-event sequence and golden outcomes of
  fixed-seed runs recorded before the fast path landed.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.baselines import NaivePathRouter
from repro.experiments import (
    butterfly_hotrow_instance,
    butterfly_random_spec,
    default_chunksize,
    derive_sweep_seeds,
    resolve_workers,
    run_frontier_trial,
    run_spec_trials,
    should_use_pool,
    sweep_specs,
)
from repro.net import NetworkGeometry, butterfly, mesh, slot_direction, slot_edge, slot_id
from repro.sim import Engine, TraceRecorder
from repro.types import Direction


def _records(specs, workers):
    """Full result dicts of a cold serial run and a forced-pool run."""
    serial = run_spec_trials(specs, dispatch="serial", warm=False)
    pooled = run_spec_trials(specs, workers=workers, dispatch="pool")
    assert [r.spec.content_hash() for r in serial] == [
        r.spec.content_hash() for r in pooled
    ]
    return [asdict(r.result) for r in serial], [asdict(r.result) for r in pooled]


class TestSerialParallelEquivalence:
    SEEDS = [0, 1, 2, 3]

    def test_frontier_trials_identical(self):
        # Unpinned: every trial builds its own instance from its seed.
        specs = [
            butterfly_random_spec(3, seed=seed, m=8, w_factor=8.0)
            for seed in self.SEEDS
        ]
        serial, pooled = _records(specs, workers=4)
        assert serial == pooled

    def test_fixed_problem_trials_identical(self):
        specs = sweep_specs(
            butterfly_random_spec(3, seed=99, m=8, w_factor=8.0),
            len(self.SEEDS),
        )
        serial, pooled = _records(specs, workers=2)
        assert serial == pooled

    @pytest.mark.parametrize(
        "backend", ["naive", "greedy"], ids=["_naive_factory", "_greedy_factory"]
    )
    def test_router_trials_identical(self, backend):
        pinned = butterfly_random_spec(
            3, seed=5, backend=backend, max_steps=3000
        ).with_pinned_scenario()
        specs = [pinned.with_seed(seed) for seed in self.SEEDS]
        serial, pooled = _records(specs, workers=3)
        assert serial == pooled


class TestParallelHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1
        assert resolve_workers(6) == 6

    def test_default_chunksize(self):
        assert default_chunksize(100, 1) == 100
        assert default_chunksize(100, 4) == 7  # ceil(100 / 16)
        assert default_chunksize(3, 8) == 1
        assert default_chunksize(0, 4) == 1

    def test_default_chunksize_duration_target(self):
        # Cheap items grow chunks until one chunk spans MIN_CHUNK_SEC...
        assert default_chunksize(100, 4, per_item_sec=0.001) == 25
        # ...capped at one chunk per worker so everyone still gets work...
        assert default_chunksize(8, 4, per_item_sec=0.0001) == 2
        # ...while expensive items keep the count-based load-balanced size.
        assert default_chunksize(100, 4, per_item_sec=0.01) == 7
        # Serial dispatch ignores the estimate: one chunk regardless.
        assert default_chunksize(100, 1, per_item_sec=0.0001) == 100

    def test_default_chunksize_max_duration_cap(self):
        from repro.experiments.batch import MAX_CHUNK_ITEMS, MAX_CHUNK_SEC

        # A 10^5-item batch over 4 workers would be 6250-item chunks on
        # the count heuristic; with a cost estimate the duration cap keeps
        # one chunk under MAX_CHUNK_SEC so progress callbacks keep firing.
        assert default_chunksize(100_000, 4, per_item_sec=0.01) == int(
            MAX_CHUNK_SEC / 0.01
        )
        # Without an estimate the absolute item cap bounds the chunk.
        assert default_chunksize(100_000, 4) == MAX_CHUNK_ITEMS
        # The cap never starves a chunk to zero for expensive items.
        assert default_chunksize(100, 4, per_item_sec=60.0) == 1

    def test_derive_sweep_seeds_is_stable(self):
        a = derive_sweep_seeds(42, 5)
        b = derive_sweep_seeds(42, 5)
        assert a == b
        assert len(set(a)) == 5
        assert derive_sweep_seeds(43, 5) != a


class TestBatchedDispatch:
    """The warm-pool batched sweep layer (repro.experiments.batch)."""

    def _specs(self, count, seed=5):
        return sweep_specs(
            butterfly_random_spec(3, seed=seed, m=8, w_factor=8.0), count
        )

    def test_should_use_pool_boundary(self):
        # Degenerate batches and serial worker counts never fork.
        assert not should_use_pool(1, 10.0, 4)
        assert not should_use_pool(64, 0.01, 1)
        # Cheap batches don't amortize spin-up; expensive ones do.
        assert not should_use_pool(100, 0.001, 4)
        assert should_use_pool(100, 0.01, 4)
        # The issue's small-batch guarantee: <=12 quick trials stay serial.
        assert not should_use_pool(12, 0.02, 4)
        # Strict inequality at the margin: saving must *exceed* the
        # (margin-scaled) spin-up budget.
        assert should_use_pool(10, 0.1, 2, spinup_sec=0.35)
        assert not should_use_pool(10, 0.1, 2, spinup_sec=0.4)

    def test_small_batch_auto_matches_cold_serial(self):
        specs = self._specs(6, seed=9)
        cold = run_spec_trials(specs, workers=1, warm=False, dispatch="serial")
        auto = run_spec_trials(specs, workers=4, dispatch="auto")
        assert [asdict(a.result) for a in cold] == [
            asdict(b.result) for b in auto
        ]

    def test_forced_pool_identical_to_cold_serial(self):
        specs = self._specs(5)
        serial = run_spec_trials(specs, dispatch="serial", warm=False)
        pooled = run_spec_trials(
            specs, workers=2, chunksize=2, dispatch="pool"
        )
        assert [r.spec.content_hash() for r in serial] == [
            r.spec.content_hash() for r in pooled
        ]
        assert [asdict(a.result) for a in serial] == [
            asdict(b.result) for b in pooled
        ]
        # Sweep records are data-only: no problem rides back from workers.
        assert all(r.problem is None for r in serial + pooled)

    def test_pool_preserves_order_and_progress(self):
        specs = self._specs(7, seed=3)
        seen = []
        records = run_spec_trials(
            specs,
            workers=2,
            chunksize=3,
            dispatch="pool",
            progress=lambda d, t, r: seen.append((d, t)),
        )
        assert [r.spec.content_hash() for r in records] == [
            s.content_hash() for s in specs
        ]
        assert seen == [(i + 1, 7) for i in range(7)]

    def test_dispatch_mode_is_validated(self):
        with pytest.raises(ValueError, match="dispatch"):
            run_spec_trials([], dispatch="threads")


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
        problem = butterfly_hotrow_instance(3, 8, seed=5)
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
        problem = butterfly_hotrow_instance(3, 8, seed=5)
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
