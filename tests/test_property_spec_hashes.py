"""Property-based tests (hypothesis) for batched trial-spec derivation.

:meth:`RunSpec.with_seeds` assembles each variant's hash payload from the
base spec's JSON around the seed digits and folds the rows together with
:func:`repro.rng.stable_hash_rows`; both must agree exactly with deriving
and hashing one spec at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rng
from repro.rng import stable_hash_rows, stable_hash_seed
from repro.scenarios import RunSpec
from repro.sweeps import SweepManifest, open_store, run_sweep

names = st.text(min_size=1, max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
# Keys include "seed" at every depth: component params may pin their own.
keys = st.sampled_from(["seed", "dim", "num_packets", "a", "z", ""]) | st.text(
    max_size=6
)
params = st.dictionaries(
    keys,
    st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)
# Mixed digit counts and signs within one shard, seed 0 included.
seeds = st.lists(
    st.sampled_from([0, 7, -7, 42, -100])
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.integers(min_value=-(2**63), max_value=2**63),
    min_size=1,
    max_size=40,
)


@st.composite
def base_specs(draw):
    arrival = draw(st.sampled_from(["", "bernoulli"]))
    return RunSpec(
        topology=draw(names),
        backend=draw(names),
        workload="" if arrival else draw(st.sampled_from(["", "wl"])),
        selector=draw(st.sampled_from(["random", "bit_fixing"])),
        topology_params=draw(params),
        workload_params=draw(params),
        selector_params=draw(params),
        backend_params=draw(params),
        seed=draw(st.integers(min_value=-(2**40), max_value=2**40)),
        name=draw(st.text(max_size=6)),
        arrival=arrival,
        arrival_params=draw(params) if arrival else {},
    )


def _check(base, trial_seeds):
    derived = base.with_seeds(trial_seeds)
    assert len(derived) == len(trial_seeds)
    for seed, spec in zip(trial_seeds, derived):
        assert spec == base.with_seed(seed)
        fresh = RunSpec.from_dict(spec.to_dict())
        assert fresh == spec
        assert spec.content_hash() == fresh.content_hash()


@settings(max_examples=150, deadline=None)
@given(base=base_specs(), trial_seeds=seeds)
def test_batched_specs_match_one_at_a_time(base, trial_seeds):
    _check(base, trial_seeds)


@settings(max_examples=40, deadline=None)
@given(base=base_specs(), first=st.integers(min_value=-50, max_value=50))
def test_equal_length_rows_take_the_column_fold(base, first):
    # 64 consecutive seeds: most share a digit count, so the rows fold
    # as numpy columns.
    _check(base, list(range(first, first + 64)))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.binary(max_size=24), max_size=30), copies=st.integers(1, 12))
def test_stable_hash_rows_matches_stable_hash_seed(rows, copies):
    rows = rows * copies
    assert stable_hash_rows(rows) == [stable_hash_seed(len(r), *r) for r in rows]


def test_shard_of_one_and_empty_params():
    base = RunSpec(topology="t", backend="b")
    _check(base, [0])
    _check(base, [-1])
    _check(base, [])


def _small_manifest():
    base = RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend="frontier",
        seed=3,
    )
    return SweepManifest.from_base(base, num_trials=20, shard_size=16)


def test_row_by_row_fold_writes_the_same_hashes_and_shards(
    tmp_path, monkeypatch
):
    manifest = _small_manifest()
    hashes = list(manifest.trial_hashes())
    store = open_store(tmp_path / "columns", manifest)
    assert run_sweep(manifest, store, compact=False).complete
    # Folding every row on its own is the path small groups take (and the
    # only one without the column fold); it must change no byte.
    monkeypatch.setattr(repro.rng, "HASH_ROWS_NUMPY_MIN", 10**9)
    assert list(manifest.trial_hashes()) == hashes
    assert hashes == [
        RunSpec.from_dict(spec.to_dict()).content_hash()
        for spec in manifest.specs()
    ]
    rows = open_store(tmp_path / "rows", manifest)
    assert run_sweep(manifest, rows, compact=False).complete
    for shard in manifest.shard_ids():
        assert rows.shard_bytes(shard) == store.shard_bytes(shard)

