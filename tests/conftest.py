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
def forced_pool(monkeypatch):
    """Make ``run_spec_trials`` fan out to its worker pool on any host.

    The pool still runs only what its probe leaves: whole groups run in
    the parent until ``LOCKSTEP_MIN_TRIALS`` trials ran.  Returns a list
    that collects how many specs each pool chunk carried.
    """
    import repro.experiments.batch as batch_mod

    monkeypatch.setattr(batch_mod, "usable_cpus", lambda: 8)
    monkeypatch.setattr(batch_mod, "should_use_pool", lambda *a, **k: True)
    pooled: list = []
    chunk_groups = batch_mod._chunk_groups

    def counting(groups, size):
        chunks = chunk_groups(groups, size)
        pooled.extend(sum(len(group) for _, group in chunk) for chunk in chunks)
        return chunks

    monkeypatch.setattr(batch_mod, "_chunk_groups", counting)
    return pooled
