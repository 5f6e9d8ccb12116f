"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.net import (
    LeveledNetworkBuilder,
    butterfly,
    layered_complete,
    line,
    mesh,
    random_leveled,
)
from repro.paths import select_paths_bit_fixing, select_paths_random
from repro.workloads import butterfly_workloads, random_many_to_one


@pytest.fixture
def bf3():
    """3-dimensional butterfly (32 nodes, L=3)."""
    return butterfly(3)


@pytest.fixture
def bf4():
    """4-dimensional butterfly (80 nodes, L=4)."""
    return butterfly(4)


@pytest.fixture
def mesh55():
    """5x5 mesh, NW orientation (L=8)."""
    return mesh(5, 5)


@pytest.fixture
def line8():
    """Line of 9 nodes (L=8)."""
    return line(8)


@pytest.fixture
def gadget():
    """The 1-4-4-1 layered congestion gadget."""
    return layered_complete([1, 4, 4, 1])


@pytest.fixture
def split_net():
    """``s -> u -> v`` beside ``t -> x``: ``t`` reaches level 1 only.

    Returns the network and the labeled node ids ``{"s": ..., ...}``.
    """
    b = LeveledNetworkBuilder("split")
    ids = {name: b.add_node(level, name) for name, level in
           (("s", 0), ("t", 0), ("u", 1), ("x", 1), ("v", 2))}
    for tail, head in (("s", "u"), ("u", "v"), ("t", "x")):
        b.add_edge(ids[tail], ids[head])
    return b.build(), ids


@pytest.fixture
def deep_random():
    """Width-5, depth-16 random leveled network."""
    return random_leveled([5] * 17, edge_probability=0.5, seed=42,
                          min_out_degree=2, min_in_degree=2)


@pytest.fixture
def bf4_random_problem(bf4):
    """Random end-to-end butterfly problem with bit-fixing paths."""
    wl = butterfly_workloads.random_end_to_end(bf4, seed=7)
    return select_paths_bit_fixing(bf4, wl.endpoints)


@pytest.fixture
def deep_random_problem(deep_random):
    """Random many-to-one problem on the deep random network."""
    wl = random_many_to_one(deep_random, 10, seed=3, min_dest_level=12)
    return select_paths_random(deep_random, wl.endpoints, seed=4)


@pytest.fixture
def walkers(monkeypatch):
    """Make ``run_sweep(workers=k)`` start its walker processes on any host
    and spread a small manifest over them.

    The CPU cap is lifted, and a walker gathers pending shards only up to
    ``LOCKSTEP_MIN_TRIALS`` trials (one minimal lockstep group) instead of
    ``LOCKSTEP_MAX_TRIALS``, so a walker does not claim a whole small
    manifest before the others start.  Stored bytes do not depend on
    either.  Walkers are forked, so they inherit these settings and every
    other monkeypatch of the test.
    """
    import repro.experiments.batch as batch_mod
    import repro.sweeps.dispatch as dispatch_mod

    monkeypatch.setattr(dispatch_mod, "WALKER_START_METHOD", "fork")
    monkeypatch.setattr(dispatch_mod, "usable_cpus", lambda: 8)
    monkeypatch.setattr(
        batch_mod, "LOCKSTEP_MAX_TRIALS", batch_mod.LOCKSTEP_MIN_TRIALS
    )


@pytest.fixture
def walked(walkers, tmp_path):
    """``walked(manifest, **run_sweep_kwargs)`` runs the manifest into a
    new store at ``workers=1`` and again at ``workers=2``, asserts that the
    two stores are byte-equal (shard segments, ``aggregate.json`` with its
    ``cache_hits``, and the compacted stream) and that the outcomes agree,
    and returns the ``workers=2`` store and outcome.

    A ``cache`` directory is copied for each run, so both runs start from
    the same result-cache state.
    """
    import pathlib
    import shutil

    from repro.sweeps import open_store, run_sweep

    runs = []

    def run(manifest, **kwargs):
        runs.append(manifest)
        stores, outcomes = [], []
        for workers in (1, 2):
            base = tmp_path / f"walked{len(runs)}-w{workers}"
            options = dict(kwargs)
            cache = options.get("cache")
            if cache is not None:
                if pathlib.Path(cache).exists():
                    shutil.copytree(cache, base / "cache")
                options["cache"] = base / "cache"
            store = open_store(base / "store", manifest)
            outcomes.append(
                run_sweep(
                    manifest, store, workers=workers, compact=False, **options
                )
            )
            stores.append(store)
        serial, walked_store = stores
        for shard in manifest.shard_ids():
            assert walked_store.shard_bytes(shard) == serial.shard_bytes(shard)
        assert (
            walked_store.aggregate_path.read_bytes()
            == serial.aggregate_path.read_bytes()
        )
        for store in stores:
            store.compact()
        assert (
            walked_store.compacted_path.read_bytes()
            == serial.compacted_path.read_bytes()
        )
        one, two = outcomes
        assert (two.trials_executed, two.trials_resumed, two.cache_hits) == (
            one.trials_executed, one.trials_resumed, one.cache_hits
        )
        assert two.shards == one.shards
        assert two.complete and two.aggregate == one.aggregate
        return walked_store, two

    return run
