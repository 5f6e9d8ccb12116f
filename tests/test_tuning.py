"""Tests for the sweep-driven parameter auto-tuner (:mod:`repro.tuning`).

The guarantees under test mirror the sweep engine's: a study is a frozen,
hash-addressed description; running it twice (or resuming a killed run)
produces byte-identical sweep stores and reports; and the search gates —
invalid-parameter pruning, the invariant-audit gate (single-instance and
portfolio), the delivery-success threshold — prune exactly the candidates
they claim to.
"""

import hashlib
import json
import pathlib

import pytest

from repro.errors import ReproError
from repro.experiments import catalog_spec
from repro.scenarios import RunSpec
from repro.tuning import (
    CANDIDATE_FIELDS,
    REPORT_FILENAME,
    STUDY_FILENAME,
    TuningCandidate,
    TuningProgress,
    TuningStudy,
    default_grid,
    load_study,
    run_study,
    save_study,
)

PRACTICAL = dict(
    set_congestion_target=3.0, m=6, w_factor=0.75, q=0.5, oversplit=1.0
)


def small_base(seed: int = 11) -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend="frontier",
        seed=seed,
        name="tune-test",
    )


def small_study(**overrides) -> TuningStudy:
    kwargs = dict(
        base=small_base(),
        candidates=(
            TuningCandidate(),
            TuningCandidate(**PRACTICAL),
        ),
        budget=2,
        rungs=2,
        eta=2,
        success_threshold=0.0,
        audit_trials=1,
        shard_size=4,
        name="unit",
    )
    kwargs.update(overrides)
    return TuningStudy(**kwargs)


def store_streams(root: pathlib.Path) -> dict:
    """Every compacted sweep stream under a study root, keyed by rel path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*.jsonl.gz"))
    }


# ---------------------------------------------------------------- candidates


class TestCandidate:
    def test_key_slugs(self):
        assert TuningCandidate().key() == "default"
        cand = TuningCandidate(**PRACTICAL)
        assert cand.key() == "c3-m6-wf0.75-q0.5-o1"

    def test_round_trip(self):
        cand = TuningCandidate(m=8, q=0.25)
        assert TuningCandidate.from_dict(cand.to_dict()) == cand

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ReproError, match="unknown"):
            TuningCandidate.from_dict({"warp_factor": 9})

    def test_params_kwargs_drops_defaults(self):
        cand = TuningCandidate(m=6)
        assert cand.params_kwargs() == {"m": 6}
        assert TuningCandidate().params_kwargs() == {}

    def test_default_grid_baseline_first_and_deduped(self):
        grid = default_grid(
            c_stars=(None, 3.0), ms=(None,), w_factors=(None,),
            qs=(None,), oversplits=(None,),
        )
        assert grid[0] == TuningCandidate()
        keys = [cand.key() for cand in grid]
        assert len(keys) == len(set(keys))
        assert set(keys) == {"default", "c3"}


# -------------------------------------------------------------------- study


class TestStudy:
    def test_round_trip(self, tmp_path):
        study = small_study(audit_catalog=("butterfly_random",))
        path = tmp_path / "study.json"
        save_study(study, path)
        loaded = load_study(path)
        assert loaded == study
        assert loaded.study_hash() == study.study_hash()

    def test_hash_excludes_name(self):
        a = small_study(name="one")
        b = small_study(name="two")
        assert a.study_hash() == b.study_hash()

    def test_hash_covers_search_inputs(self):
        base = small_study()
        assert small_study(budget=4).study_hash() != base.study_hash()
        assert (
            small_study(audit_catalog=("funnel",)).study_hash()
            != base.study_hash()
        )

    def test_rung_trials_halving(self):
        study = small_study(budget=8, rungs=3, eta=2)
        assert [study.rung_trials(r) for r in range(3)] == [2, 4, 8]

    def test_validation(self):
        with pytest.raises(ReproError, match="duplicate"):
            small_study(
                candidates=(TuningCandidate(), TuningCandidate())
            )
        with pytest.raises(ReproError, match="backend"):
            small_study(
                base=RunSpec(
                    topology="butterfly",
                    topology_params={"dim": 3},
                    workload="random_many_to_one",
                    workload_params={"num_packets": 6},
                    backend="naive",
                )
            )
        with pytest.raises(ReproError):
            small_study(budget=0)
        with pytest.raises(ReproError):
            small_study(candidates=())

    def test_candidate_spec_carries_params(self):
        study = small_study()
        spec = study.candidate_spec(TuningCandidate(**PRACTICAL))
        assert spec.backend_params["m"] == 6
        assert "c3-m6" in spec.name


# ------------------------------------------------------------------- driver


class TestRunStudy:
    def test_end_to_end_winner_and_baseline(self, tmp_path):
        events = []
        report = run_study(
            small_study(), tmp_path / "study", progress=events.append
        )
        assert report.winner is not None
        assert report.winner.key == "c3-m6-wf0.75-q0.5-o1"
        assert report.baseline is not None
        assert report.baseline.key == "default"
        assert report.improvement is not None and report.improvement > 1.0
        assert report.winner.steps_ratio is not None
        assert (tmp_path / "study" / STUDY_FILENAME).exists()
        assert (tmp_path / "study" / REPORT_FILENAME).exists()
        kinds = {event["kind"] for event in events}
        assert {"tuning_rung", "tuning_candidate", "tuning_done"} <= kinds

    def test_invalid_candidate_pruned(self, tmp_path):
        study = small_study(
            candidates=(TuningCandidate(**PRACTICAL), TuningCandidate(m=2)),
        )
        report = run_study(study, tmp_path / "study")
        by_key = {v.key: v for v in report.rounds[0]}
        assert by_key["m2"].pruned
        assert "invalid parameters" in by_key["m2"].reason
        assert report.winner.key == "c3-m6-wf0.75-q0.5-o1"

    def test_portfolio_audit_gate_prunes_unsound_candidate(self, tmp_path):
        # m=4 leaves invariant I_f zero margin (packets must end phases at
        # inner-level <= m-4).  On the tiny base instance it happens to
        # keep the invariants — which is exactly why the gate is a
        # portfolio: adding butterfly_random to audit_catalog exposes the
        # violation, and the candidate is pruned before any sweep budget
        # is spent on it.
        study = small_study(
            candidates=(TuningCandidate(**PRACTICAL), TuningCandidate(m=4)),
            audit_catalog=("butterfly_random",),
        )
        report = run_study(study, tmp_path / "study")
        by_key = {v.key: v for v in report.rounds[0]}
        assert by_key["m4"].pruned
        assert by_key["m4"].reason == "invariant audit failed"
        assert any(
            "butterfly_random" in failure
            for failure in by_key["m4"].audit_violations
        )
        assert report.winner.key == "c3-m6-wf0.75-q0.5-o1"

    def test_rerun_is_byte_identical(self, tmp_path):
        study = small_study()
        run_study(study, tmp_path / "a")
        run_study(study, tmp_path / "b")
        streams_a = store_streams(tmp_path / "a")
        streams_b = store_streams(tmp_path / "b")
        assert streams_a and streams_a == streams_b
        assert (tmp_path / "a" / REPORT_FILENAME).read_bytes() == (
            tmp_path / "b" / REPORT_FILENAME
        ).read_bytes()

    def test_resume_reuses_store(self, tmp_path):
        study = small_study()
        first = run_study(study, tmp_path / "study")
        before = store_streams(tmp_path / "study")
        again = run_study(study, tmp_path / "study", resume=True)
        assert store_streams(tmp_path / "study") == before
        assert again.winner.key == first.winner.key

    def test_store_refuses_other_study(self, tmp_path):
        run_study(small_study(), tmp_path / "study")
        with pytest.raises(ReproError, match="different study"):
            run_study(small_study(budget=4), tmp_path / "study")

    def test_lockstep_rungs_pinned_to_per_trial_bytes(self, tmp_path):
        """Both rungs of this study have at least LOCKSTEP_MIN_TRIALS cache
        misses per candidate, so they run on the lockstep kernel with its
        own counters.  The report and every sweep stream must hash to the
        bytes the study wrote when telemetry sent every trial through the
        per-trial engine's observer."""
        study = TuningStudy(
            base=catalog_spec("mesh_corner_shift", seed=0),
            candidates=(
                TuningCandidate(),
                TuningCandidate(**dict(PRACTICAL, m=8)),
                TuningCandidate(**dict(PRACTICAL, m=6, w_factor=1.0)),
            ),
            budget=16,
            rungs=2,
            success_threshold=0.0,
            audit_trials=1,
            name="pin",
        )
        events = []
        run_study(study, tmp_path, progress=events.append)
        finals = [
            e for e in events
            if e["kind"] == "sweep_heartbeat" and e["final"]
        ]
        assert len(finals) == 5
        assert all(e["executor"] == "lockstep[w=8]" for e in finals)
        report = (tmp_path / REPORT_FILENAME).read_bytes()
        streams = b"".join(store_streams(tmp_path).values())
        assert hashlib.sha256(report).hexdigest() == (
            "5d952caf06b7500479086ef9a438ffbf944e809d8dc393530dc1ac95d03d7b54"
        )
        assert hashlib.sha256(streams).hexdigest() == (
            "cf90f0d31ae6cb5a935bddae8b89c9a4412589d8062469dd3d1bd9230e0e4a9b"
        )

    def test_progress_file_sink(self, tmp_path):
        sink = tmp_path / "progress.jsonl"
        run_study(small_study(), tmp_path / "study", progress=sink)
        lines = [
            json.loads(line)
            for line in sink.read_text().splitlines()
            if line
        ]
        assert any(rec["kind"] == "tuning_done" for rec in lines)


# ----------------------------------------------------------------- plumbing


class TestProgress:
    def test_none_sink_is_silent(self):
        progress = TuningProgress(None)
        progress.emit({"kind": "x"})
        assert progress.records_emitted == 0
        progress.close()

    def test_candidate_fields_cover_slugs(self):
        cand = TuningCandidate(**{name: 1 for name in CANDIDATE_FIELDS})
        key = cand.key()
        assert key.count("-") == len(CANDIDATE_FIELDS) - 1
