"""Gathered sweep runs: several small shards as one lockstep batch.

``run_sweep`` claims consecutive pending shards until their remaining
trials fill one executor group, runs them as one batch, writes each record
to its own shard and folds it into the live aggregate.  These tests pin
that the stored bytes and the aggregate never depend on the gathering:
against the per-trial path, across leases held elsewhere, kills in the
middle of a batch, and resumes.  They also cover the pool plumbing that
the batch goes through (pre-cut groups, the workers' warm cache), and
that an :class:`IntSketch` does not depend on the order of its folds.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.batch as batch_mod
from repro.errors import ReproError
from repro.io import result_to_dict
from repro.experiments import run_spec_trials, sweep_specs
from repro.experiments.batch import TrialExecutor
from repro.scenarios import RunSpec, ScenarioCache
from repro.sweeps import (
    IntSketch,
    LeaseManager,
    StreamingAggregate,
    SweepHeartbeat,
    SweepManifest,
    aggregate_records,
    aggregate_store,
    open_store,
    run_sweep,
)
from repro.sweeps.store import ShardWriter

#: Three shards at the largest size tested, and a ragged last shard at
#: every size.
TRIALS = 40


def base_spec(seed: int = 11) -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend="frontier",
        seed=seed,
    )


def make_manifest(shard_size: int, pin: bool = True) -> SweepManifest:
    return SweepManifest.from_base(
        base_spec(), num_trials=TRIALS, shard_size=shard_size, pin=pin
    )


def shard_bytes(store, manifest):
    return [store.shard_bytes(s) for s in manifest.shard_ids()]


def without_cache_hits(aggregate: dict) -> dict:
    return {k: v for k, v in aggregate.items() if k != "cache_hits"}


def one_pass(store) -> dict:
    """The aggregate of a plain in-order pass over every stored record."""
    return without_cache_hits(aggregate_records(store.iter_records()).to_dict())


@pytest.fixture
def small_sketches(monkeypatch):
    """Sketches of 16 buckets, so a sweep's sketches coarsen."""
    init = IntSketch.__init__
    monkeypatch.setattr(
        IntSketch, "__init__", lambda self, max_buckets=16: init(self, 16)
    )


@pytest.fixture
def count_read_back(monkeypatch):
    """Counts the records the aggregate folds from disk."""
    calls = []
    add_record = StreamingAggregate.add_record

    def counting(self, record):
        calls.append(record["index"])
        add_record(self, record)

    monkeypatch.setattr(StreamingAggregate, "add_record", counting)
    return calls


class TestGatheredRuns:
    @pytest.mark.parametrize("shard_size", [1, 5, 16])
    def test_bytes_equal_per_trial(self, shard_size, tmp_path):
        """Shard segments, compacted stream and aggregate.json are byte
        for byte those of the per-trial path, and the whole sweep runs
        as one lockstep batch."""
        manifest = make_manifest(shard_size)
        out = {}
        for lockstep in (True, False):
            beats = []
            store = open_store(tmp_path / f"lockstep-{lockstep}", manifest)
            run_sweep(
                manifest, store, lockstep=lockstep, compact=False,
                heartbeat=SweepHeartbeat(beats.append, total=TRIALS),
            )
            shards = shard_bytes(store, manifest)
            store.compact()
            out[lockstep] = (
                shards,
                store.compacted_path.read_bytes(),
                store.aggregate_path.read_bytes(),
                beats[-1],
            )
        assert out[True][:3] == out[False][:3]
        assert out[True][3]["executor"] == f"lockstep[w={TRIALS}]"
        assert out[True][3]["lockstep_trials"] == TRIALS

    def test_shard_leased_elsewhere_mid_run(self, tmp_path, count_read_back):
        """A shard another worker holds drops out of the gathered run; its
        neighbours run as one batch around it, and once the other worker
        writes it, the aggregate reads back that shard alone."""
        manifest = make_manifest(5)
        reference = open_store(tmp_path / "ref", manifest)
        run_sweep(manifest, reference, compact=False, lockstep=False)

        store = open_store(tmp_path / "s", manifest)
        blocker = LeaseManager(store.leases_dir).claim(3)
        beats = []
        outcome = run_sweep(
            manifest, store, compact=False,
            heartbeat=SweepHeartbeat(beats.append, total=TRIALS),
        )
        assert not outcome.complete
        assert [s.status for s in outcome.shards] == [
            "leased-elsewhere" if s == 3 else "done"
            for s in manifest.shard_ids()
        ]
        assert beats[-1]["executor"] == f"lockstep[w={TRIALS - 5}]"
        assert not store.shard_complete(3)
        assert sorted(p.name for p in store.leases_dir.iterdir()) == [
            "shard-00003.lease"
        ]
        # The other worker finishes shard 3 and exits before aggregating.
        other_worker = TrialExecutor(lockstep=False)
        with store.writer(3) as other:
            for spec in manifest.shard_specs(3):
                result = other_worker.run(spec).result
                other.append(spec.seed, spec.content_hash(), result)
        store.finalize_shard(other)
        blocker.release()
        del count_read_back[:]
        again = run_sweep(manifest, store, compact=False)
        assert again.complete and again.trials_executed == 0
        assert shard_bytes(store, manifest) == shard_bytes(reference, manifest)
        assert store.aggregate_path.read_bytes() == (
            reference.aggregate_path.read_bytes()
        )

        # A third store: this invocation writes every shard but 3, whose
        # owner finishes before the walk ends; only shard 3 is read back.
        late = open_store(tmp_path / "late", manifest)
        start, stop = manifest.shard_range(3)
        real_claim = LeaseManager.claim

        def claim(self, shard, steal_stale=False):
            if shard != 3:
                return real_claim(self, shard, steal_stale)
            with late.writer(3) as other:
                for spec in manifest.shard_specs(3):
                    other.append(
                        spec.seed, spec.content_hash(),
                        other_worker.run(spec).result,
                    )
            late.finalize_shard(other)
            return None

        del count_read_back[:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LeaseManager, "claim", claim)
            outcome = run_sweep(manifest, late, compact=False)
        assert outcome.complete
        assert count_read_back == list(range(start, stop))
        assert late.aggregate_path.read_bytes() == (
            reference.aggregate_path.read_bytes()
        )

    def test_kill_mid_batch_then_resume(self, tmp_path, monkeypatch):
        """A kill after 7 appends of a 40-trial gathered run leaves shard 0
        finalized, shard 1 with a two-record prefix and no lease held;
        ``--resume`` finishes every shard byte for byte."""
        manifest = make_manifest(5)
        reference = open_store(tmp_path / "ref", manifest)
        run_sweep(manifest, reference, lockstep=False)

        class Killed(Exception):
            pass

        append = ShardWriter.append
        appended = []

        def dying(self, *args, **kwargs):
            if len(appended) == 7:
                raise Killed
            appended.append(self.shard)
            append(self, *args, **kwargs)

        victim = open_store(tmp_path / "victim", manifest)
        with monkeypatch.context() as patch:
            patch.setattr(ShardWriter, "append", dying)
            with pytest.raises(Killed):
                run_sweep(manifest, victim)
        assert victim.shard_complete(0) and not victim.shard_complete(1)
        assert victim.resume_shard(1) == 2
        assert not list(victim.leases_dir.iterdir())

        outcome = run_sweep(manifest, victim, resume=True)
        assert outcome.complete
        assert outcome.trials_resumed == 2
        assert outcome.trials_executed == TRIALS - 7
        assert victim.compacted_path.read_bytes() == (
            reference.compacted_path.read_bytes()
        )
        assert victim.aggregate_path.read_bytes() == (
            reference.aggregate_path.read_bytes()
        )

    @pytest.mark.parametrize("small", [False, True], ids=["exact", "coarsened"])
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_folded_aggregate_equals_one_pass(
        self, small, telemetry, tmp_path, request, count_read_back
    ):
        """The live aggregate, completed by reading back what this
        invocation did not write, equals a plain pass over the store: on a
        fresh store (nothing read back), a resumed one (the finished shard
        and the resumed prefix read back) and one that another worker
        partly wrote, and on one walked in reverse.  With coarsened
        sketches too, only the records the live fold lacks are read back.
        Every trial routes its own instance, so the slowdowns spread
        widely."""
        if small:
            request.getfixturevalue("small_sketches")
        manifest = make_manifest(5, pin=False)
        executor = TrialExecutor(telemetry=telemetry, lockstep=False)

        fresh = open_store(tmp_path / "fresh", manifest)
        del count_read_back[:]
        outcome = run_sweep(manifest, fresh, telemetry=telemetry)
        assert count_read_back == []
        assert without_cache_hits(outcome.aggregate) == one_pass(fresh)
        widths = [
            outcome.aggregate[name]["bucket_width"]
            for name in ("makespan", "delivery_time", "slowdown_milli")
        ]
        assert (max(widths) > 1) == small

        resumed = open_store(tmp_path / "resumed", manifest)
        run_sweep(manifest, resumed, shards=[0], telemetry=telemetry)
        with resumed.writer(1) as writer:
            for spec in manifest.shard_specs(1)[:3]:
                writer.append(
                    spec.seed, spec.content_hash(), executor.run(spec).result
                )
        del count_read_back[:]
        outcome = run_sweep(manifest, resumed, telemetry=telemetry)
        assert count_read_back == list(range(5 + 3))
        assert without_cache_hits(outcome.aggregate) == one_pass(resumed)

        foreign = open_store(tmp_path / "foreign", manifest)
        run_sweep(manifest, foreign, shards=[2, 5], telemetry=telemetry)
        del count_read_back[:]
        outcome = run_sweep(manifest, foreign, telemetry=telemetry)
        assert count_read_back == list(range(10, 15)) + list(range(25, 30))
        assert without_cache_hits(outcome.aggregate) == one_pass(foreign)

        # Walking shards out of order folds them out of order too.
        reversed_walk = open_store(tmp_path / "reversed", manifest)
        del count_read_back[:]
        outcome = run_sweep(
            manifest, reversed_walk, telemetry=telemetry,
            shards=list(reversed(list(manifest.shard_ids()))),
        )
        assert count_read_back == []
        assert without_cache_hits(outcome.aggregate) == one_pass(reversed_walk)

    def test_out_of_order_fold_equals_one_pass(
        self, small_sketches, count_read_back
    ):
        """These two shards' makespans coarsen the makespan sketch (they
        once gave a bucket width of 4 folded in manifest order and 2
        folded the other way round).  Folded in either order they give the
        same sketch, and a live fold of shard 1 is completed by reading
        back shard 0 alone."""
        template = TrialExecutor().run(base_spec()).result
        makespans = (
            [96, 208, 215, 175, 271, 222, 186, 111, 236, 264],
            [185, 262, 182, 275, 252, 297, 118, 215],
        )
        shards, index = {}, 0
        for shard, values in enumerate(makespans):
            shards[shard] = []
            for value in values:
                result = dataclasses.replace(template, makespan=value)
                shards[shard].append(
                    {"index": index, "result": result_to_dict(result)}
                )
                index += 1

        class Store:
            manifest = types.SimpleNamespace(shard_ids=lambda: [0, 1])

            def is_compacted(self):
                return False

            def iter_shard_records(self, shard):
                return iter(shards[shard])

            def iter_records(self):
                return iter(shards[0] + shards[1])

        in_order = aggregate_records(Store().iter_records()).to_dict()
        reversed_fold = aggregate_records(shards[1] + shards[0]).to_dict()
        assert in_order["makespan"]["bucket_width"] > 1
        assert reversed_fold == in_order
        live = aggregate_records(shards[1])
        del count_read_back[:]
        assert aggregate_store(Store(), live, {1: 0}).to_dict() == in_order
        assert count_read_back == list(range(len(makespans[0])))

    def test_fresh_sweep_reads_nothing_back(self, tmp_path, count_read_back):
        manifest = make_manifest(5)
        store = open_store(tmp_path / "s", manifest)
        outcome = run_sweep(manifest, store)
        assert count_read_back == []
        assert outcome.aggregate["trials"] == TRIALS
        assert without_cache_hits(outcome.aggregate) == one_pass(store)

    def test_finalize_refuses_a_part_file_another_writer_grew(self, tmp_path):
        manifest = make_manifest(5)
        store = open_store(tmp_path / "s", manifest)
        executor = TrialExecutor()
        with store.writer(0) as writer:
            for spec in manifest.shard_specs(0):
                writer.append(
                    spec.seed, spec.content_hash(), executor.run(spec).result
                )
        with open(store.part_path(0), "ab") as fh:
            fh.write(b"{}\n")
        with pytest.raises(ReproError, match=r"another process appended"):
            store.finalize_shard(writer)


# --------------------------------------------------------------- pool plumbing


class InlinePool:
    """A ProcessPoolExecutor stand-in that runs its initializer and every
    chunk in this process."""

    def __init__(self, max_workers, initializer, initargs):
        self.initargs = initargs
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(batch_mod, "_WORKER", None)


def test_pool_workers_start_with_a_warm_cache(inline_pool, forced_pool):
    """The workers of a pooled run build problems in a warm cache of
    their own: the pooled trials of a fixed-problem batch build it once."""
    specs = sweep_specs(base_spec(), 8)
    records = run_spec_trials(specs, workers=2, lockstep=False)
    assert len(records) == 8
    assert sum(forced_pool) == 8 - batch_mod.LOCKSTEP_MIN_TRIALS
    scenarios = batch_mod._WORKER.scenarios
    assert isinstance(scenarios, ScenarioCache)
    assert len(scenarios) == 1


def test_pooled_run_cuts_groups_once(inline_pool, forced_pool, monkeypatch):
    """At 2+ workers the parent cuts the groups and the chunks carry them:
    each spec's group key is computed once, and the records equal a
    serial run's."""
    greedy = [
        dataclasses.replace(base_spec(seed), backend="greedy")
        for seed in range(3)
    ]
    specs = sweep_specs(base_spec(), 30) + greedy
    calls = []
    group_key = TrialExecutor._group_key

    def counting(self, spec):
        calls.append(spec)
        return group_key(self, spec)

    monkeypatch.setattr(TrialExecutor, "_group_key", counting)
    pooled = run_spec_trials(specs, workers=2)
    assert sum(forced_pool) == len(greedy)
    assert len(calls) == len(specs)
    serial = run_spec_trials(specs, workers=1)
    assert [r.result for r in pooled] == [r.result for r in serial]


# ------------------------------------------------------------------ sketches


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=-50, max_value=5000), max_size=40),
        max_size=8,
    ),
    max_buckets=st.sampled_from([16, 20, 64]),
)
def test_add_many_equals_sequential_add(batches, max_buckets):
    many, one = IntSketch(max_buckets), IntSketch(max_buckets)
    for values in batches:
        many.add_many(values)
        for value in values:
            one.add(value)
        assert vars(many) == vars(one)
    assert many.to_dict() == one.to_dict()


#: Values spread over a grid of some stride fill every bucket they reach
#: and still do after one doubling of the width: where one doubling per
#: fold fell short, these made the sketch depend on the fold order.
SKETCH_VALUES = st.one_of(
    st.lists(st.integers(min_value=-50, max_value=5000), max_size=120),
    st.integers(min_value=1, max_value=64).flatmap(
        lambda stride: st.lists(
            st.integers(min_value=-2, max_value=80).map(lambda k: k * stride),
            max_size=120,
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    values=SKETCH_VALUES,
    max_buckets=st.sampled_from([16, 20, 64]),
)
def test_sketch_state_is_order_free(data, values, max_buckets):
    """Any permutation of the values, split any way between ``add`` and
    ``add_many``, gives the same sketch, and no call leaves more than
    ``max_buckets`` buckets."""

    def fold(order):
        sketch = IntSketch(max_buckets)
        cuts = data.draw(
            st.lists(st.integers(0, len(order)), max_size=8).map(sorted)
        )
        for start, stop in zip([0] + cuts, cuts + [len(order)]):
            chunk = order[start:stop]
            if data.draw(st.booleans()):
                sketch.add_many(chunk)
                assert len(sketch._buckets) <= max_buckets
            else:
                for value in chunk:
                    sketch.add(value)
                    assert len(sketch._buckets) <= max_buckets
        return sketch

    reference = vars(fold(values))
    shuffled = data.draw(st.permutations(values))
    assert vars(fold(shuffled)) == reference


def test_add_many_coarsens_like_add():
    """Values spread wider than the bucket bound coarsen the sketch."""
    values = list(range(0, 4000, 7))
    many, one = IntSketch(16), IntSketch(16)
    many.add_many(values)
    for value in values:
        one.add(value)
    assert many.width > 1
    assert vars(many) == vars(one)
