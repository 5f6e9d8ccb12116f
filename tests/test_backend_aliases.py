"""The ``frontier_vec``/``naive_vec`` backend names are registry aliases.

They resolve to the ``frontier``/``naive`` backends.  Specs keep the
backend string as written, so their content hashes (and every cache key
or sweep manifest built from them) must not move, and their records must
equal the canonical backend's byte for byte on every execution path: the
plain dispatcher, the trial executor on both sides of the lockstep width
threshold, and arrival-schedule scenarios.
"""

import json

import pytest

from repro.experiments import sweep_specs
from repro.experiments.batch import LOCKSTEP_MIN_TRIALS, TrialExecutor
from repro.io import result_to_dict
from repro.scenarios import BACKENDS, RunSpec, run

ALIASES = {"frontier_vec": "frontier", "naive_vec": "naive"}

#: ``content_hash()`` of :func:`fixed_spec` / :func:`arrival_spec`, pinned
#: from when these names selected their own kernel.
PINNED_HASHES = {
    ("fixed", "frontier_vec"): "7f13bb49d1c391ab",
    ("fixed", "naive_vec"): "505f855baf371cc4",
    ("arrival", "frontier_vec"): "51e1859b603083f7",
    ("arrival", "naive_vec"): "4b1ca97798f7ac1e",
}


def fixed_spec(backend: str) -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="random_many_to_one",
        workload_params={"num_packets": 6},
        backend=backend,
        seed=11,
    )


def arrival_spec(backend: str) -> RunSpec:
    return RunSpec(
        topology="butterfly",
        topology_params={"dim": 3},
        workload="",
        arrival="bernoulli",
        arrival_params={"rate": 0.2, "horizon": 40},
        backend=backend,
        seed=5,
    )


SPECS = {"fixed": fixed_spec, "arrival": arrival_spec}


def record_bytes(result) -> bytes:
    return json.dumps(result_to_dict(result), sort_keys=True).encode()


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_alias_resolves_to_canonical_backend(alias):
    assert BACKENDS.canonical(alias) == ALIASES[alias]
    assert BACKENDS.get(alias) is BACKENDS.get(ALIASES[alias])


@pytest.mark.parametrize("kind, alias", sorted(PINNED_HASHES))
def test_alias_specs_keep_their_content_hash(kind, alias):
    spec = SPECS[kind](alias)
    assert spec.content_hash() == PINNED_HASHES[(kind, alias)]
    assert spec.content_hash() != SPECS[kind](ALIASES[alias]).content_hash()


@pytest.mark.parametrize("kind, alias", sorted(PINNED_HASHES))
def test_alias_run_records_byte_equal(kind, alias):
    """``run(spec)`` on a fixed-problem and a Bernoulli-arrival spec."""
    got = run(SPECS[kind](alias))
    ref = run(SPECS[kind](ALIASES[alias]))
    assert record_bytes(got) == record_bytes(ref)
    if kind == "arrival":
        assert got.all_delivered


@pytest.mark.parametrize("alias", sorted(ALIASES))
@pytest.mark.parametrize(
    "width, tag",
    [
        (LOCKSTEP_MIN_TRIALS - 1, ""),
        (LOCKSTEP_MIN_TRIALS, f"lockstep[w={LOCKSTEP_MIN_TRIALS}]"),
    ],
)
def test_alias_executor_records_byte_equal(alias, width, tag):
    """Below the threshold both names run per trial on the reference
    engine; at it both run one lockstep batch."""
    executor = TrialExecutor()
    got = executor.run_chunk(sweep_specs(fixed_spec(alias), width))
    ref = executor.run_chunk(sweep_specs(fixed_spec(ALIASES[alias]), width))
    assert [r.executor for r in got] == [tag] * width
    assert [r.executor for r in ref] == [tag] * width
    for a, b in zip(got, ref):
        assert a.spec.seed == b.spec.seed
        assert record_bytes(a.result) == record_bytes(b.result)
