"""Seeded random-number utilities.

Everything stochastic in the library (frontier-set assignment, excitation
coin flips, conflict tie-breaking, workload generation) draws from a
:class:`numpy.random.Generator` so experiments are exactly reproducible from
a single integer seed, and independent substreams can be split off for
parallel trials without correlation.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

RngLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Accepts ``None`` (OS entropy), an integer seed, a ``SeedSequence``, or an
    existing generator (returned unchanged, so callers can thread one
    generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: RngLike, n: int) -> list[np.random.Generator]:
    """Split ``n`` statistically independent generators from one seed.

    Used by the experiment runner to give each trial its own substream: the
    trials are then reproducible individually *and* as a batch.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        seq = np.random.SeedSequence(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def trial_seeds(base_seed: int, n: int) -> list[int]:
    """Derive ``n`` well-separated integer seeds from ``base_seed``.

    Handy when an API takes integer seeds (e.g. recorded in result tables)
    rather than generator objects.
    """
    seq = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n)]


def coin(rng: np.random.Generator, probability: float) -> bool:
    """Biased coin flip: ``True`` with the given probability."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return bool(rng.random() < probability)


def choice(rng: np.random.Generator, items: Sequence):
    """Uniformly pick one element of a non-empty sequence."""
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if len(items) == 1:
        return items[0]
    return items[int(rng.integers(0, len(items)))]


def shuffled(rng: np.random.Generator, items: Sequence) -> list:
    """Return a new list with the items in uniformly random order."""
    out = list(items)
    if len(out) > 1:
        rng.shuffle(out)
    return out


def iter_batches(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive slices of ``seq`` of at most ``size`` elements."""
    if size <= 0:
        raise ValueError("batch size must be positive")
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


_FNV_OFFSET = 0xCBF29CE484222325  # FNV-1a offset basis
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK63 = 0x7FFFFFFFFFFFFFFF


def stable_hash_seed(*parts: Optional[int]) -> int:
    """Combine integer parts into a deterministic 63-bit seed.

    Unlike ``hash()``, the result does not depend on ``PYTHONHASHSEED``; used
    to derive per-(experiment, trial) seeds that are stable across runs.

    Plain-int FNV-1a over 64-bit lanes (masking reproduces ``uint64``
    wraparound exactly, so values match the original numpy-scalar
    implementation bit for bit).  Python ints keep this fast even for the
    hashing callers that fold whole canonical-JSON payloads byte by byte
    (spec content/scenario hashes on every cache lookup and shard append).
    """
    acc = _FNV_OFFSET
    prime = _FNV_PRIME
    mask = _MASK64
    for part in parts:
        value = 0 if part is None else part & mask
        acc = ((acc ^ value) * prime) & mask
    return acc & _MASK63


#: Fewest rows of one length that :func:`stable_hash_rows` folds as numpy
#: columns; smaller groups fold row by row in :func:`stable_hash_seed`,
#: where one row costs less than the fixed overhead of the column loop.
HASH_ROWS_NUMPY_MIN = 8

#: ``uint64`` words :func:`stable_hash_rows` widens per slab of columns.
_HASH_SLAB_WORDS = 4096


def stable_hash_rows(rows: Sequence[bytes]) -> List[int]:
    """``[stable_hash_seed(len(row), *row) for row in rows]``, batched.

    Rows of equal length fold together as ``uint64`` columns: one pass
    over the byte positions advances every row's FNV-1a state at once
    (numpy's ``uint64`` multiply wraps exactly like the masked Python
    ints), so hashing a sweep shard's canonical spec payloads costs one
    short numpy loop instead of a Python loop per byte per row.  Groups
    smaller than :data:`HASH_ROWS_NUMPY_MIN` fold row by row.
    """
    out = [0] * len(rows)
    by_length: dict = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for length, members in by_length.items():
        if len(members) < HASH_ROWS_NUMPY_MIN:
            for i in members:
                out[i] = stable_hash_seed(length, *rows[i])
            continue
        grid = np.frombuffer(
            b"".join(rows[i] for i in members), np.uint8
        ).reshape(len(members), length)
        acc = np.full(
            len(members),
            ((_FNV_OFFSET ^ length) * _FNV_PRIME) & _MASK64,
            dtype=np.uint64,
        )
        # An array operand (not a numpy scalar) keeps each multiply on the
        # ufunc's fast array-array loop.
        prime = np.full(len(members), _FNV_PRIME, dtype=np.uint64)
        # Widen a slab of columns at a time, so the uint64 copy stays small
        # (a whole 1024-row shard widened at once is megabytes).
        step = max(1, _HASH_SLAB_WORDS // len(members))
        for start in range(0, length, step):
            slab = np.ascontiguousarray(
                grid[:, start : start + step].T, dtype=np.uint64
            )
            for column in list(slab):
                acc ^= column
                acc *= prime
        acc &= np.uint64(_MASK63)
        for i, value in zip(members, acc.tolist()):
            out[i] = value
    return out
