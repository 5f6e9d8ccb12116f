"""Tests for the million-trial sweep engine (:mod:`repro.sweeps`).

The load-bearing guarantee under test is **byte identity per shard**: a
shard's finalized segment is a pure function of the manifest — never of
worker count, resume point, lease interleaving, or which invocation wrote
it.  Everything else (manifests, leases, the streaming store, aggregation,
the CLI wiring) is exercised around that invariant.
"""

import gzip
import json
import os

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments import run_spec_trials, sweep_specs
from repro.experiments.batch import TrialExecutor
from repro.scenarios import RunSpec
from repro.sweeps import (
    DEFAULT_STALE_AFTER_SEC,
    IntSketch,
    LeaseManager,
    StreamingAggregate,
    SweepHeartbeat,
    SweepManifest,
    aggregate_store,
    encode_record,
    load_manifest,
    manifest_from_specs,
    open_store,
    render_aggregate,
    run_sweep,
    save_manifest,
)


def small_base(seed: int = 11) -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend="frontier",
        seed=seed,
    )


@pytest.fixture
def manifest():
    return SweepManifest.from_base(small_base(), num_trials=11, shard_size=4)


# ------------------------------------------------------------------ manifest


class TestManifest:
    def test_from_base_reproduces_sweep_specs(self):
        base = small_base()
        m = SweepManifest.from_base(base, num_trials=9, shard_size=4)
        assert m.specs() == sweep_specs(base, 9)
        assert m.num_trials == 9
        assert [m.spec_for(i) for i in range(9)] == m.specs()

    def test_round_trip_preserves_hash(self, manifest, tmp_path):
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded == manifest
        assert loaded.manifest_hash() == manifest.manifest_hash()

    def test_hash_ignores_name_but_not_semantics(self, manifest):
        import dataclasses

        renamed = dataclasses.replace(manifest, name="other")
        assert renamed.manifest_hash() == manifest.manifest_hash()
        resharded = dataclasses.replace(manifest, shard_size=2)
        assert resharded.manifest_hash() != manifest.manifest_hash()
        reseeded = dataclasses.replace(
            manifest, seeds=tuple(reversed(manifest.seeds))
        )
        assert reseeded.manifest_hash() != manifest.manifest_hash()

    def test_manifest_from_specs_hash_equals_from_base(self, manifest):
        lifted = manifest_from_specs(manifest.specs(), shard_size=4)
        assert lifted.manifest_hash() == manifest.manifest_hash()
        assert lifted.specs() == manifest.specs()

    def test_manifest_from_specs_rejects_mixed_bases(self):
        specs = sweep_specs(small_base(), 3)
        other = sweep_specs(small_base(seed=99), 1)[0]
        with pytest.raises(ReproError, match="seed-variant"):
            manifest_from_specs(specs + [other])

    def test_shard_math(self, manifest):
        # 11 trials / shard_size 4 -> shards of 4, 4, 3 (ragged tail).
        assert manifest.num_shards == 3
        assert list(manifest.shard_ids()) == [0, 1, 2]
        assert manifest.shard_range(0) == (0, 4)
        assert manifest.shard_range(2) == (8, 11)
        assert [
            len(manifest.shard_specs(s)) for s in manifest.shard_ids()
        ] == [4, 4, 3]
        with pytest.raises(ReproError, match="out of range"):
            manifest.shard_range(3)

    def test_unknown_keys_rejected(self, manifest):
        data = manifest.to_dict()
        data["surprise"] = 1
        with pytest.raises(ReproError, match="unknown sweep-manifest keys"):
            SweepManifest.from_dict(data)

    def test_trial_hashes_match_specs(self, manifest):
        assert list(manifest.trial_hashes()) == [
            spec.content_hash() for spec in manifest.specs()
        ]


# --------------------------------------------------------------------- store


class TestStore:
    def test_segments_are_deterministic(self, manifest, tmp_path):
        blobs = []
        for name in ("a", "b"):
            store = open_store(tmp_path / name, manifest)
            run_sweep(manifest, store, compact=False)
            blobs.append(
                [store.shard_bytes(s) for s in manifest.shard_ids()]
            )
        assert blobs[0] == blobs[1]

    def test_record_lines_match_direct_execution(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        records = list(store.iter_shard_records(0))
        expected = run_spec_trials(manifest.shard_specs(0))
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        for record, ref in zip(records, expected):
            assert record["seed"] == ref.spec.seed
            assert record["spec_hash"] == ref.spec.content_hash()
            line = encode_record(
                record["index"], ref.spec.seed,
                ref.spec.content_hash(), ref.result,
            )
            assert json.loads(line) == record

    def test_resume_truncates_torn_tail(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        executor = TrialExecutor()
        with store.writer(0) as writer:
            for spec in manifest.shard_specs(0)[:2]:
                writer.append(
                    spec.seed, spec.content_hash(),
                    executor.run(spec).result,
                )
        with open(store.part_path(0), "ab") as fh:
            fh.write(b'{"kind":"sweep_record","index":2,"torn')
        assert store.resume_shard(0) == 2
        # The torn line is gone; re-validation is now a no-op.
        size = store.part_path(0).stat().st_size
        assert store.resume_shard(0) == 2
        assert store.part_path(0).stat().st_size == size

    def test_resume_rejects_foreign_records(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        spec = manifest.spec_for(0)
        result = TrialExecutor().run(spec).result
        # Right index, wrong seed: the whole prefix is invalid.
        store.part_path(0).parent.mkdir(parents=True, exist_ok=True)
        store.part_path(0).write_bytes(
            encode_record(0, spec.seed + 1, spec.content_hash(), result)
        )
        assert store.resume_shard(0) == 0
        assert store.part_path(0).stat().st_size == 0

    def test_finalize_requires_complete_shard(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        executor = TrialExecutor()
        spec = manifest.spec_for(0)
        with store.writer(0) as writer:
            writer.append(
                spec.seed, spec.content_hash(), executor.run(spec).result
            )
        with pytest.raises(ReproError, match="incomplete"):
            store.finalize_shard(0)

    def test_compaction_preserves_record_bytes(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        raw = b""
        for shard in manifest.shard_ids():
            with gzip.open(store.segment_path(shard), "rb") as fh:
                raw += fh.read()
        store.compact()
        assert store.is_compacted()
        assert not store.segment_path(0).exists()
        with gzip.open(store.compacted_path, "rb") as fh:
            assert fh.read() == raw
        # Readers keep working post-compaction, in trial order.
        indexes = [r["index"] for r in store.iter_records()]
        assert indexes == list(range(manifest.num_trials))
        assert store.all_complete()

    def test_truncated_segment_names_the_file(self, manifest, tmp_path):
        """A finalized segment cut short (a crash mid-copy, a full disk)
        fails with an error naming the file and the remedy; following the
        remedy recomputes the shard byte for byte."""
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        good = store.shard_bytes(1)
        segment = store.segment_path(1)
        segment.write_bytes(good[: len(good) // 2])
        pattern = r"shard-00001\.jsonl\.gz is truncated.*delete it.*--resume"
        with pytest.raises(ReproError, match=pattern):
            list(store.iter_records())
        with pytest.raises(ReproError, match=pattern):
            run_sweep(manifest, store, resume=True)
        with pytest.raises(ReproError, match=pattern):
            store.compact()
        segment.unlink()
        run_sweep(manifest, store, resume=True, compact=False)
        assert store.shard_bytes(1) == good

    @pytest.mark.parametrize(
        "damage",
        [lambda blob: blob[:-12], lambda blob: b"not gzip" + blob[8:]],
        ids=["truncated", "bad-header"],
    )
    def test_damaged_compacted_stream_names_the_file(
        self, manifest, tmp_path, damage
    ):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store)
        blob = store.compacted_path.read_bytes()
        store.compacted_path.write_bytes(damage(blob))
        with pytest.raises(
            ReproError, match=r"sweep\.jsonl\.gz is truncated or corrupt"
        ):
            list(store.iter_records())
        store.compacted_path.unlink()
        run_sweep(manifest, store, resume=True)
        assert store.compacted_path.read_bytes() == blob
        assert store.all_complete()

    def test_truncated_manifest_names_the_file(self, manifest, tmp_path):
        """A manifest.json cut short (a full disk, a copy interrupted)
        fails with an error naming the file and the remedy; following the
        remedy leaves every shard byte-identical."""
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        shards = [store.shard_bytes(s) for s in manifest.shard_ids()]
        path = store.dir / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        pattern = r"manifest\.json is truncated or corrupt.*delete it.*--resume"
        with pytest.raises(ReproError, match=pattern):
            open_store(tmp_path / "s", manifest)
        path.unlink()
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, resume=True, compact=False)
        assert path.read_text(encoding="utf-8") == text
        assert [store.shard_bytes(s) for s in manifest.shard_ids()] == shards

    def test_store_refuses_foreign_manifest(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        other = SweepManifest.from_base(
            small_base(seed=99), num_trials=3, shard_size=4
        )
        # Same directory, different sweep: hand-swap the pinned manifest.
        save_manifest(other, store.dir / "manifest.json")
        with pytest.raises(ReproError, match="different sweep"):
            store.init()


# -------------------------------------------------------------------- leases


class TestLeases:
    def test_claim_is_exclusive(self, tmp_path):
        leases = LeaseManager(tmp_path)
        first = leases.claim(0)
        assert first is not None
        assert leases.claim(0) is None
        first.release()
        assert leases.claim(0) is not None

    def test_release_is_idempotent(self, tmp_path):
        lease = LeaseManager(tmp_path).claim(3)
        lease.release()
        lease.release()
        assert not lease.path.exists()

    def test_stale_lease_is_stolen_only_when_asked(self, tmp_path):
        leases = LeaseManager(tmp_path, stale_after=60.0)
        held = leases.claim(0)
        old = os.stat(held.path).st_mtime - 3600
        os.utime(held.path, (old, old))
        assert leases.is_stale(0)
        assert leases.claim(0) is None  # polite claim still loses
        stolen = leases.claim(0, steal_stale=True)
        assert stolen is not None

    def test_dead_pid_on_this_host_is_stale(self, tmp_path):
        leases = LeaseManager(tmp_path, stale_after=DEFAULT_STALE_AFTER_SEC)
        held = leases.claim(0)
        payload = json.loads(held.path.read_text())
        payload["pid"] = 2 ** 22 + 1  # beyond any default pid_max
        held.path.write_text(json.dumps(payload))
        assert leases.is_stale(0)

    def test_fresh_lease_is_not_stale(self, tmp_path):
        leases = LeaseManager(tmp_path)
        leases.claim(0)
        assert not leases.is_stale(0)
        assert not leases.is_stale(1)  # unclaimed


# ------------------------------------------------------------------ dispatch


class TestRunSweep:
    def test_complete_run_writes_aggregate_and_compacts(
        self, manifest, tmp_path
    ):
        store = open_store(tmp_path / "s", manifest)
        outcome = run_sweep(manifest, store)
        assert outcome.complete
        assert outcome.trials_executed == manifest.num_trials
        assert outcome.shards_done == manifest.num_shards
        assert store.is_compacted()
        aggregate = store.load_aggregate()
        assert aggregate["trials"] == manifest.num_trials
        assert aggregate == outcome.aggregate
        assert "complete" in outcome.summary()

    def test_rerun_skips_completed_shards(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store)
        again = run_sweep(manifest, store)
        assert again.trials_executed == 0
        assert again.complete
        assert all(s.status == "already-complete" for s in again.shards)

    def test_leased_shard_is_skipped(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        store.init()
        blocker = LeaseManager(store.leases_dir).claim(1)
        outcome = run_sweep(manifest, store, compact=False)
        assert not outcome.complete
        statuses = {s.shard: s.status for s in outcome.shards}
        assert statuses[1] == "leased-elsewhere"
        assert statuses[0] == statuses[2] == "done"
        blocker.release()
        assert run_sweep(manifest, store).complete

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_resume_is_byte_identical(self, manifest, tmp_path, workers):
        reference = open_store(tmp_path / "ref", manifest)
        run_sweep(manifest, reference, compact=False)
        ref_bytes = [
            reference.shard_bytes(s) for s in manifest.shard_ids()
        ]

        # Simulate a mid-shard kill: a valid two-record prefix, then the
        # torn line of a write that never completed.
        victim = open_store(tmp_path / "victim", manifest)
        executor = TrialExecutor()
        with victim.writer(0) as writer:
            for spec in manifest.shard_specs(0)[:2]:
                writer.append(
                    spec.seed, spec.content_hash(),
                    executor.run(spec).result,
                )
        with open(victim.part_path(0), "ab") as fh:
            fh.write(b'{"kind":"sweep_record","index":2')
        outcome = run_sweep(
            manifest, victim, workers=workers, resume=True, compact=False,
            dispatch="serial" if workers == 1 else "auto",
        )
        assert outcome.complete
        assert outcome.trials_resumed == 2
        assert [
            victim.shard_bytes(s) for s in manifest.shard_ids()
        ] == ref_bytes
        ref_agg = dict(reference.load_aggregate())
        got_agg = dict(victim.load_aggregate())
        ref_agg.pop("cache_hits"), got_agg.pop("cache_hits")
        assert got_agg == ref_agg

    def test_aggregate_matches_serial_records(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store)
        aggregate = store.load_aggregate()
        records = run_spec_trials(manifest.specs())
        assert aggregate["trials"] == len(records)
        assert aggregate["delivered_all"] == sum(
            1 for r in records if r.result.all_delivered
        )
        makespans = sorted(r.result.makespan for r in records)
        assert aggregate["makespan"]["min"] == makespans[0]
        assert aggregate["makespan"]["max"] == makespans[-1]
        assert aggregate["makespan"]["count"] == len(records)

    def test_shard_restriction_and_cooperation(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        first = run_sweep(manifest, store, shards=[0, 2], compact=False)
        assert not first.complete
        assert {s.shard for s in first.shards} == {0, 2}
        second = run_sweep(manifest, store, shards=[1])
        assert second.complete
        assert store.load_aggregate()["trials"] == manifest.num_trials

    def test_heartbeat_emits_progress(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        sink_path = tmp_path / "hb.jsonl"
        heartbeat = SweepHeartbeat(
            sink_path, total=manifest.num_trials, interval_sec=0.0
        )
        run_sweep(manifest, store, heartbeat=heartbeat)
        lines = [
            json.loads(line)
            for line in sink_path.read_text().splitlines()
        ]
        assert len(lines) >= 2  # per-trial beats + the final record
        assert all(r["kind"] == "sweep_heartbeat" for r in lines)
        final = lines[-1]
        assert final["final"] is True
        assert final["done"] == final["total"] == manifest.num_trials
        assert final["trials_per_sec"] > 0
        assert "trial" in final["spans"]

    def test_result_cache_hits_are_reported(self, manifest, tmp_path):
        cache_root = tmp_path / "cache"
        warm = run_sweep(
            manifest, open_store(tmp_path / "a", manifest), cache=cache_root
        )
        assert warm.cache_hits == 0
        replay = run_sweep(
            manifest, open_store(tmp_path / "b", manifest), cache=cache_root
        )
        assert replay.cache_hits == manifest.num_trials
        assert replay.aggregate["cache_hits"] == manifest.num_trials


# ----------------------------------------------------------------- aggregate


class TestAggregation:
    def test_int_sketch_exact_when_uncoarsened(self):
        sketch = IntSketch()
        for value in [5, 1, 9, 3, 7, 5, 5, 2, 8, 4]:
            sketch.add(value)
        assert sketch.count == 10
        assert sketch.min == 1 and sketch.max == 9
        assert sketch.mean == pytest.approx(4.9)
        assert sketch.percentile(0.5) == 5
        assert sketch.percentile(0.99) == 9
        assert sketch.to_dict()["bucket_width"] == 1

    def test_int_sketch_coarsens_in_bounded_memory(self):
        sketch = IntSketch(max_buckets=16)
        for value in range(1000):
            sketch.add(value)
        assert len(sketch._buckets) <= 16
        assert sketch.width > 1
        assert sketch.count == 1000
        assert sketch.total == sum(range(1000))
        # Percentiles stay within one (coarsened) bucket width.
        assert abs(sketch.percentile(0.5) - 500) <= sketch.width
        assert sketch.min == 0 and sketch.max == 999

    def test_empty_sketch(self):
        sketch = IntSketch()
        assert sketch.mean is None
        assert sketch.percentile(0.5) is None
        assert sketch.to_dict()["count"] == 0

    def test_streaming_aggregate_from_store(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        aggregate = aggregate_store(store)
        assert aggregate.trials == manifest.num_trials
        record = aggregate.to_dict()
        assert record["kind"] == "sweep_aggregate"
        assert record["success_rate"] == pytest.approx(
            record["delivered_all"] / record["trials"]
        )
        text = render_aggregate(record)
        assert "trials" in text and "makespan" in text

    def test_merge_dict_accumulates(self, manifest, tmp_path):
        store = open_store(tmp_path / "s", manifest)
        run_sweep(manifest, store, compact=False)
        part = aggregate_store(store).to_dict()
        merged = StreamingAggregate()
        merged.merge_dict(part)
        merged.merge_dict(part)
        out = merged.to_dict()
        assert out["trials"] == 2 * part["trials"]
        assert out["packets"] == 2 * part["packets"]
        assert out["makespan"]["min"] == part["makespan"]["min"]
        assert out["makespan"]["max"] == part["makespan"]["max"]
        assert out["makespan"]["mean"] == pytest.approx(
            part["makespan"]["mean"], rel=0.05
        )

    def test_render_empty_aggregate(self):
        assert render_aggregate({"trials": 0}) == "aggregate : no trials"


# ----------------------------------------------------------------------- CLI


class TestSweepCli:
    NET_ARGS = [
        "sweep", "--net", "butterfly:3", "--packets", "6",
        "--trials", "10", "--shard-size", "4", "--fixed-problem",
    ]

    def test_manifest_only_invocation(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(self.NET_ARGS + ["--manifest", str(path)]) == 0
        manifest = load_manifest(path)
        assert manifest.num_trials == 10
        assert manifest.shard_size == 4
        out = capsys.readouterr().out
        assert "wrote" in out and manifest.manifest_hash() in out

    def test_store_end_to_end(self, tmp_path, capsys):
        store_root = tmp_path / "store"
        progress = tmp_path / "hb.jsonl"
        code = main(
            self.NET_ARGS
            + ["--store", str(store_root), "--progress", str(progress)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        assert "aggregate : 10 trials" in out
        beats = [
            json.loads(line) for line in progress.read_text().splitlines()
        ]
        assert beats and beats[-1]["done"] == 10
        (store_dir,) = store_root.iterdir()
        assert (store_dir / "sweep.jsonl.gz").exists()
        assert (store_dir / "aggregate.json").exists()

    def test_cooperating_shard_invocations_match_single_shot(
        self, tmp_path, capsys
    ):
        shared = tmp_path / "shared"
        single = tmp_path / "single"
        args = self.NET_ARGS + ["--no-compact"]
        assert main(args + ["--store", str(shared), "--shard", "0,2"]) == 0
        assert main(args + ["--store", str(shared), "--shard", "1"]) == 0
        assert main(args + ["--store", str(single)]) == 0
        capsys.readouterr()
        (shared_dir,) = shared.iterdir()
        (single_dir,) = single.iterdir()
        assert shared_dir.name == single_dir.name  # same manifest hash
        shard_names = sorted(
            p.name for p in (shared_dir / "shards").glob("*.jsonl.gz")
        )
        assert len(shard_names) == 3
        for name in shard_names:
            assert (shared_dir / "shards" / name).read_bytes() == (
                single_dir / "shards" / name
            ).read_bytes()
        a = json.loads((shared_dir / "aggregate.json").read_text())
        b = json.loads((single_dir / "aggregate.json").read_text())
        assert a == b

    def test_loaded_manifest_drives_store_run(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        main(self.NET_ARGS + ["--manifest", str(path)])
        # A second invocation with *different* trial flags loads the
        # manifest verbatim: the file, not the flags, names the sweep.
        code = main(
            [
                "sweep", "--net", "butterfly:3", "--trials", "999",
                "--manifest", str(path), "--store", str(tmp_path / "s"),
            ]
        )
        assert code == 0
        assert "10 trials" in capsys.readouterr().out

    def test_conflicting_shard_size_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        main(self.NET_ARGS + ["--manifest", str(path)])
        code = main(
            self.NET_ARGS[:-3]
            + ["--shard-size", "8", "--manifest", str(path),
               "--store", str(tmp_path / "s")]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err
