"""Sweep manifests: a million-trial parameter study as one hash-stable file.

A :class:`SweepManifest` names an *entire* Monte Carlo sweep the way a
:class:`~repro.scenarios.RunSpec` names one trial: as frozen, JSON-round-
trippable data with a deterministic content hash.  It stores the base spec
plus the ordered list of per-trial master seeds — not the materialized
specs — so a 10^6-trial manifest stays megabytes, while every trial spec
(and therefore its :meth:`~repro.scenarios.RunSpec.content_hash`) is
derivable on demand: ``spec_for(i) == base.with_seed(seeds[i])``.
Specs are derived a shard at a time (:meth:`SweepManifest.shard_specs`,
via :meth:`~repro.scenarios.RunSpec.with_seeds`), which computes the
shard's content hashes in one batched fold.

Two properties make the manifest the unit of distributed sweep execution:

* **Hash-stable.**  :meth:`manifest_hash` is a pure function of the
  semantic fields (base spec payload, seeds, shard size), computed the
  same way :meth:`RunSpec.content_hash` is — stable across processes,
  machines, and ``PYTHONHASHSEED`` — so independent invocations on
  different hosts agree on the store directory and on every shard's
  contents without coordination.
* **Shardable.**  Trials are split into fixed-size contiguous shards
  (``shard_size`` trials each, the last one ragged).  A shard is the unit
  of lease-based work stealing and of the byte-identity guarantee: the
  records of shard ``k`` are a pure function of the manifest, never of
  which worker, worker count, or resume point produced them.

``from_base(pin=True)`` reproduces :func:`repro.experiments.sweep_specs`
exactly (pinned scenario, :func:`~repro.experiments.derive_sweep_seeds`
master seeds), so the existing fixed-problem sweep workflow lifts into a
manifest without changing a single trial's bytes.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..experiments.batch import LOCKSTEP_MAX_TRIALS
from ..io import atomic_writer
from ..rng import stable_hash_seed
from ..scenarios import RunSpec

PathLike = Union[str, pathlib.Path]

MANIFEST_KIND = "sweep_manifest"
MANIFEST_FORMAT = 1

#: Default trials per shard: one executor group, so a default manifest's
#: shards each fill one lockstep group and are the unit that
#: :func:`~repro.sweeps.run_sweep`'s walkers spread over processes.
DEFAULT_SHARD_SIZE = LOCKSTEP_MAX_TRIALS

@dataclass(frozen=True)
class SweepManifest:
    """An ordered, shardable list of trials over one base spec."""

    base: RunSpec
    seeds: Tuple[int, ...]
    shard_size: int = DEFAULT_SHARD_SIZE
    name: str = ""

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ReproError("sweep manifest requires at least one trial seed")
        if self.shard_size < 1:
            raise ReproError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        object.__setattr__(
            self, "seeds", tuple(int(seed) for seed in self.seeds)
        )
        object.__setattr__(self, "shard_size", int(self.shard_size))

    # ---------------------------------------------------------- construction

    @classmethod
    def from_base(
        cls,
        base: RunSpec,
        num_trials: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        base_seed: Optional[int] = None,
        pin: bool = True,
        name: str = "",
    ) -> "SweepManifest":
        """Derive a manifest the way :func:`~repro.experiments.sweep_specs`
        derives its spec list.

        ``pin=True`` (the default) pins the base's component seeds first
        (:meth:`RunSpec.with_pinned_scenario`), so varying the master seed
        re-rolls only the routing coins — the fixed-problem Monte Carlo
        design.  ``pin=False`` leaves component seeds derived from each
        trial's master seed: every trial then routes an independent
        instance (the instance-distribution sweep).
        """
        from ..experiments.configs import derive_sweep_seeds

        if num_trials < 1:
            raise ReproError(f"num_trials must be >= 1, got {num_trials}")
        pinned = base.with_pinned_scenario() if pin else base
        seeds = derive_sweep_seeds(
            base.seed if base_seed is None else base_seed, num_trials
        )
        return cls(
            base=pinned,
            seeds=tuple(seeds),
            shard_size=shard_size,
            name=name or (base.name and f"sweep({base.name})") or "",
        )

    # -------------------------------------------------------------- trials

    @property
    def num_trials(self) -> int:
        return len(self.seeds)

    def spec_for(self, index: int) -> RunSpec:
        """The fully specified trial at position ``index``."""
        return self.base.with_seeds([self.seeds[index]])[0]

    def specs(self) -> List[RunSpec]:
        """All trial specs, materialized (prefer per-shard iteration)."""
        return [
            spec for shard in self.shard_ids() for spec in self.shard_specs(shard)
        ]

    def trial_hashes(self) -> Iterator[str]:
        """Ordered :meth:`RunSpec.content_hash` of every trial (lazy,
        derived one shard at a time)."""
        for shard in self.shard_ids():
            for spec in self.shard_specs(shard):
                yield spec.content_hash()

    # -------------------------------------------------------------- shards

    @property
    def num_shards(self) -> int:
        return (len(self.seeds) + self.shard_size - 1) // self.shard_size

    def shard_range(self, shard: int) -> Tuple[int, int]:
        """Half-open ``[start, stop)`` trial indexes of one shard."""
        if not 0 <= shard < self.num_shards:
            raise ReproError(
                f"shard {shard} out of range (manifest has "
                f"{self.num_shards} shards)"
            )
        start = shard * self.shard_size
        return start, min(start + self.shard_size, len(self.seeds))

    def shard_specs(self, shard: int) -> List[RunSpec]:
        """The trial specs of one shard, in trial order.

        Derived in one batched pass (:meth:`RunSpec.with_seeds`), so every
        spec arrives with its :meth:`~RunSpec.content_hash` computed: the
        store's record lines, its resume check and the result cache read
        the memo instead of re-serializing and re-folding each spec.
        """
        start, stop = self.shard_range(shard)
        return self.base.with_seeds(self.seeds[start:stop])

    def shard_ids(self) -> range:
        return range(self.num_shards)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "kind": MANIFEST_KIND,
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "base": self.base.to_dict(),
            "seeds": list(self.seeds),
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_dict(cls, data) -> "SweepManifest":
        if not isinstance(data, dict):
            raise ReproError(
                f"sweep manifest must be a JSON object, got "
                f"{type(data).__name__}"
            )
        kind = data.get("kind", MANIFEST_KIND)
        if kind != MANIFEST_KIND:
            raise ReproError(f"not a sweep manifest: kind={kind!r}")
        known = {"kind", "format", "name", "base", "seeds", "shard_size"}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown sweep-manifest keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "base" not in data or "seeds" not in data:
            raise ReproError("sweep manifest requires 'base' and 'seeds'")
        return cls(
            base=RunSpec.from_dict(data["base"]),
            seeds=tuple(int(s) for s in data["seeds"]),
            # A file without ``shard_size`` predates the 256 default: it
            # keeps the 1024 it was written under, and so its hash.
            shard_size=int(data.get("shard_size", 1024)),
            name=data.get("name", ""),
        )

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"sweep manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # --------------------------------------------------------------- hashing

    def hash_payload(self) -> bytes:
        """Canonical JSON bytes of the semantic fields (``name`` excluded).

        The base spec is canonicalized to the first trial's seed before
        hashing: only ``base.with_seed(seeds[i])`` ever executes, so two
        manifests whose bases differ *only* in master seed run identical
        trials and must hash equal (e.g. :func:`manifest_from_specs` over
        a :meth:`from_base` manifest's own spec list).  The base spec
        contributes its :meth:`~repro.scenarios.RunSpec.hash_payload`
        (display name excluded there too), so two manifests hash equal
        exactly when they run the same trials in the same shards.
        """
        canonical_base = self.base.with_seed(self.seeds[0])
        record = {
            "kind": MANIFEST_KIND,
            "format": MANIFEST_FORMAT,
            "base": canonical_base.hash_payload().decode("utf-8"),
            "seeds": list(self.seeds),
            "shard_size": self.shard_size,
        }
        return json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def manifest_hash(self) -> str:
        """Deterministic 16-hex-digit content address of this sweep."""
        payload = self.hash_payload()
        return format(stable_hash_seed(len(payload), *payload), "016x")

    def describe(self) -> str:
        label = self.name or "sweep"
        return (
            f"{label}: {self.num_trials} trials x {self.base.topology}/"
            f"{self.base.workload or '-'} -> {self.base.backend} in "
            f"{self.num_shards} shards of <= {self.shard_size} "
            f"({self.manifest_hash()})"
        )


def save_manifest(manifest: SweepManifest, path: PathLike) -> None:
    """Write a manifest as a JSON file, atomically (tmp + rename).

    The write goes through :func:`~repro.io.atomic_writer`: a process
    killed mid-write leaves at most a stray ``.tmp`` file, never a partial
    manifest under ``path``.
    """
    with atomic_writer(path) as fh:
        fh.write((manifest.to_json() + "\n").encode("utf-8"))


def load_manifest(path: PathLike) -> SweepManifest:
    """Load a manifest written by :func:`save_manifest`."""
    target = pathlib.Path(path)
    if not target.exists():
        raise ReproError(f"sweep manifest not found: {target}")
    return SweepManifest.from_json(target.read_text(encoding="utf-8"))


def manifest_from_specs(
    specs: Sequence[RunSpec],
    shard_size: int = DEFAULT_SHARD_SIZE,
    name: str = "",
) -> SweepManifest:
    """Lift an explicit spec list (e.g. :func:`~repro.experiments.
    sweep_specs` output) into a manifest.

    The specs must all be seed-variants of one base (``spec ==
    base.with_seed(spec.seed)``), which is what every sweep helper in the
    repo produces; anything else cannot be represented compactly and is
    rejected rather than silently re-derived.
    """
    if not specs:
        raise ReproError("manifest_from_specs requires at least one spec")
    base = specs[0]
    for index, spec in enumerate(specs):
        if spec != base.with_seed(spec.seed):
            raise ReproError(
                f"spec {index} is not a seed-variant of the first spec; "
                "sweep manifests hold one base spec plus per-trial seeds"
            )
    return SweepManifest(
        base=base,
        seeds=tuple(spec.seed for spec in specs),
        shard_size=shard_size,
        name=name,
    )
