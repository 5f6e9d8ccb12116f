"""Serializable run specifications.

A :class:`RunSpec` names every ingredient of one routing experiment —
topology, workload, path selection, routing backend, their parameter dicts,
and a single integer seed — as plain JSON-able data.  Two properties make
it the unit of the experiment pipeline:

* **Round-trippable.** ``RunSpec.from_dict(spec.to_dict()) == spec`` and the
  same through JSON text, so specs can live in files, CLI arguments, result
  archives, and process pools without loss.
* **Content-addressed.** :meth:`RunSpec.content_hash` is a deterministic
  function of the spec's semantic fields (the display ``name`` is excluded),
  computed via :func:`repro.rng.stable_hash_seed` over canonical JSON bytes —
  stable across processes, machines, and ``PYTHONHASHSEED`` — and keys the
  on-disk result cache.

Seed policy
-----------
``seed`` is the only RNG input.  The dispatcher derives per-component
streams with :func:`~repro.rng.stable_hash_seed`: topology
``(seed, 11)``, workload ``(seed, 12)``, path selector ``(seed, 13)`` —
the same constants the legacy instance builders used — while a component's
params may pin an explicit ``"seed"`` to override the derivation (the
catalog uses this to stay byte-identical with historical instances).
Backends receive the raw ``seed`` and apply their own legacy derivation
(see :mod:`repro.scenarios.components`).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from ..errors import ReproError
from ..rng import stable_hash_rows, stable_hash_seed

PathLike = Union[str, pathlib.Path]

SPEC_KIND = "run_spec"
SPEC_FORMAT = 1

#: stable_hash_seed stream tags for the derived per-component seeds.
TOPOLOGY_SEED_TAG = 11
WORKLOAD_SEED_TAG = 12
SELECTOR_SEED_TAG = 13
ARRIVAL_SEED_TAG = 14


def _plain(value: Any) -> Any:
    """Canonicalize a params value to plain JSON types (tuples -> lists)."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise ReproError(
        f"spec params must be JSON-serializable, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RunSpec:
    """One fully specified routing experiment, as data.

    ``topology`` and ``backend`` are required registry names, and
    ``selector`` defaults to random monotone paths.  The traffic comes from
    exactly one of ``workload`` or ``arrival``: the latter names an
    injection process (``bernoulli``, ``poisson``, ``trace``) that is
    materialized over its horizon into a schedule-carrying problem, so
    streaming scenarios hash, cache, and dispatch like batch ones.
    """

    topology: str
    backend: str
    workload: str = ""
    selector: str = "random"
    topology_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)
    selector_params: Dict[str, Any] = field(default_factory=dict)
    backend_params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    name: str = ""
    # Appended after ``name`` so positional construction order is unchanged.
    arrival: str = ""
    arrival_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.topology:
            raise ReproError("RunSpec requires a topology name")
        if not self.backend:
            raise ReproError("RunSpec requires a backend name")
        if self.arrival and self.workload:
            raise ReproError(
                "RunSpec takes a workload or an arrival process, not both"
            )
        if self.arrival_params and not self.arrival:
            raise ReproError("arrival_params given without an arrival process")
        # Canonicalize params so equality and hashing are representation-
        # independent (tuples vs lists, numpy ints vs ints).
        for fname in (
            "topology_params",
            "workload_params",
            "selector_params",
            "backend_params",
            "arrival_params",
        ):
            object.__setattr__(self, fname, _plain(getattr(self, fname)))
        object.__setattr__(self, "seed", int(self.seed))

    # ------------------------------------------------------------- variants

    def with_seed(self, seed: int) -> "RunSpec":
        """A copy of this spec under a different master seed.

        The copy skips ``__post_init__``: this spec's params are already
        canonical, so it shares their dicts rather than rebuilding them
        (specs are frozen and nothing edits params in place).  Its hash
        memos start empty.
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        for name in _FIELD_NAMES:
            state[name] = self.__dict__[name]
        state["seed"] = int(seed)
        return clone

    def with_seeds(self, seeds: Iterable[int]) -> List["RunSpec"]:
        """``[self.with_seed(s) for s in seeds]``, content hashes computed.

        Every variant's :meth:`hash_payload` is this spec's payload with
        only the seed digits changed, so the payloads are assembled from
        the canonical JSON of the keys sorted before ``"seed"`` and of
        those sorted after it, and folded together by
        :func:`~repro.rng.stable_hash_rows`.  The sweep store derives a
        whole shard's trial specs this way; each one's
        :meth:`content_hash` is then a memo hit, also after pickling.
        """
        specs = [self.with_seed(seed) for seed in seeds]
        record = self.to_dict()
        del record["name"], record["seed"]
        before = _canonical_json({k: v for k, v in record.items() if k < "seed"})
        after = _canonical_json({k: v for k, v in record.items() if k > "seed"})
        head = before[:-1] + ("," if before != "{}" else "") + '"seed":'
        tail = "," + after[1:] if after != "{}" else "}"
        hashes = stable_hash_rows(
            [f"{head}{spec.seed}{tail}".encode("utf-8") for spec in specs]
        )
        for spec, value in zip(specs, hashes):
            object.__setattr__(spec, "_content_hash_cache", format(value, "016x"))
        return specs

    def with_params(self, **backend_params) -> "RunSpec":
        """A copy with extra backend params merged in."""
        merged = {**self.backend_params, **backend_params}
        return dataclasses.replace(self, backend_params=merged)

    def with_pinned_scenario(self) -> "RunSpec":
        """A copy whose component seeds are pinned to their resolved values.

        After pinning, changing ``seed`` re-randomizes only what the backend
        draws (frontier-set assignment, arbitration tie-breaks) — the
        topology, workload, and selected paths stay byte-identical, which is
        the Monte Carlo design of the paper's probabilistic guarantees: many
        coin flips over one fixed instance.  All pinned variants share a
        :meth:`scenario_hash`, so sweeps over them hit the warm scenario
        cache after the first build.
        """
        pinned = dataclasses.replace(
            self,
            topology_params={**self.topology_params, "seed": self.topology_seed()},
            workload_params={**self.workload_params, "seed": self.workload_seed()},
            selector_params={**self.selector_params, "seed": self.selector_seed()},
        )
        if self.arrival:
            pinned = dataclasses.replace(
                pinned,
                arrival_params={**self.arrival_params, "seed": self.arrival_seed()},
            )
        return pinned

    # -------------------------------------------------------- derived seeds

    def topology_seed(self) -> int:
        """Seed for topology generation (explicit param wins)."""
        explicit = self.topology_params.get("seed")
        return (
            int(explicit)
            if explicit is not None
            else stable_hash_seed(self.seed, TOPOLOGY_SEED_TAG)
        )

    def workload_seed(self) -> int:
        """Seed for workload sampling (explicit param wins)."""
        explicit = self.workload_params.get("seed")
        return (
            int(explicit)
            if explicit is not None
            else stable_hash_seed(self.seed, WORKLOAD_SEED_TAG)
        )

    def selector_seed(self) -> int:
        """Seed for path selection (explicit param wins)."""
        explicit = self.selector_params.get("seed")
        return (
            int(explicit)
            if explicit is not None
            else stable_hash_seed(self.seed, SELECTOR_SEED_TAG)
        )

    def arrival_seed(self) -> int:
        """Seed for the arrival process (explicit param wins)."""
        explicit = self.arrival_params.get("seed")
        return (
            int(explicit)
            if explicit is not None
            else stable_hash_seed(self.seed, ARRIVAL_SEED_TAG)
        )

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Plain-dict form (canonical field order, JSON-safe values)."""
        record = {
            "kind": SPEC_KIND,
            "format": SPEC_FORMAT,
            "name": self.name,
            "topology": self.topology,
            "topology_params": _plain(self.topology_params),
            "workload": self.workload,
            "workload_params": _plain(self.workload_params),
            "selector": self.selector,
            "selector_params": _plain(self.selector_params),
            "backend": self.backend,
            "backend_params": _plain(self.backend_params),
            "seed": self.seed,
        }
        # Emitted (and hashed) only when set, so every pre-existing spec
        # keeps its serialized form and content hash.
        if self.arrival:
            record["arrival"] = self.arrival
            record["arrival_params"] = _plain(self.arrival_params)
        return record

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys (typo guard)."""
        if not isinstance(data, Mapping):
            raise ReproError(
                f"run spec must be a JSON object, got {type(data).__name__}"
            )
        kind = data.get("kind", SPEC_KIND)
        if kind != SPEC_KIND:
            raise ReproError(f"not a run spec: kind={kind!r}")
        known = {
            "kind",
            "format",
            "name",
            "topology",
            "topology_params",
            "workload",
            "workload_params",
            "selector",
            "selector_params",
            "backend",
            "backend_params",
            "seed",
            "arrival",
            "arrival_params",
        }
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown run-spec keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "topology" not in data or "backend" not in data:
            raise ReproError("run spec requires 'topology' and 'backend'")
        return cls(
            topology=data["topology"],
            backend=data["backend"],
            workload=data.get("workload", ""),
            selector=data.get("selector", "random"),
            topology_params=dict(data.get("topology_params", {})),
            workload_params=dict(data.get("workload_params", {})),
            selector_params=dict(data.get("selector_params", {})),
            backend_params=dict(data.get("backend_params", {})),
            seed=int(data.get("seed", 0)),
            name=data.get("name", ""),
            arrival=data.get("arrival", ""),
            arrival_params=dict(data.get("arrival_params", {})),
        )

    def to_json(self, indent: Optional[int] = 1) -> str:
        """JSON text form (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse JSON text produced by :meth:`to_json` (or hand-written)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"run spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # --------------------------------------------------------------- hashing

    def hash_payload(self) -> bytes:
        """Canonical JSON bytes of the semantic fields (``name`` excluded)."""
        record = self.to_dict()
        record.pop("name")
        return _canonical_json(record).encode("utf-8")

    def content_hash(self) -> str:
        """Deterministic 16-hex-digit content address of this spec.

        Stable across processes and machines (no ``PYTHONHASHSEED``
        dependence): the canonical JSON bytes are folded through
        :func:`repro.rng.stable_hash_seed`.  Memoized per instance — the
        spec is frozen, so the hash can never go stale, and sweep hot
        paths (shard writers, result caches) ask repeatedly.
        """
        cached = self.__dict__.get("_content_hash_cache")
        if cached is None:
            payload = self.hash_payload()
            cached = format(stable_hash_seed(len(payload), *payload), "016x")
            object.__setattr__(self, "_content_hash_cache", cached)
        return cached

    def scenario_payload(self) -> bytes:
        """Canonical JSON bytes of the *problem-determining* fields.

        The materialized instance — network, geometry, workload endpoints,
        selected paths — is a pure function of the topology / workload /
        selector names, their params, and the three *resolved* component
        seeds.  The backend, its params, and the master ``seed`` (which the
        backend alone consumes once component seeds are resolved) are
        excluded: two specs with equal scenario payloads build identical
        :class:`~repro.paths.RoutingProblem` instances even when their
        routing coins differ.
        """
        # Each component hashes the exact params its builder receives (the
        # dispatcher merges the resolved seed in), so a pinned spec and its
        # unpinned original share a scenario hash.
        record = {
            "topology": self.topology,
            "topology_params": _plain(
                {**self.topology_params, "seed": self.topology_seed()}
            ),
            "workload": self.workload,
            "workload_params": _plain(
                {**self.workload_params, "seed": self.workload_seed()}
            ),
            "selector": self.selector,
            "selector_params": _plain(
                {**self.selector_params, "seed": self.selector_seed()}
            ),
        }
        if self.arrival:
            record["arrival"] = self.arrival
            record["arrival_params"] = _plain(
                {**self.arrival_params, "seed": self.arrival_seed()}
            )
        return _canonical_json(record).encode("utf-8")

    def scenario_hash(self) -> str:
        """16-hex-digit address of the problem this spec materializes.

        Keys the in-process warm scenario cache
        (:class:`~repro.scenarios.cache.ScenarioCache`): specs sharing a
        scenario hash share one ``(network, geometry, paths)`` build.
        Memoized per instance like :meth:`content_hash`.
        """
        cached = self.__dict__.get("_scenario_hash_cache")
        if cached is None:
            payload = self.scenario_payload()
            cached = format(stable_hash_seed(len(payload), *payload), "016x")
            object.__setattr__(self, "_scenario_hash_cache", cached)
        return cached

    def describe(self) -> str:
        """One-line human summary."""
        label = self.name or "spec"
        wl = self.workload or (f"~{self.arrival}" if self.arrival else "-")
        return (
            f"{label}: {self.topology} / {wl} / {self.selector} "
            f"-> {self.backend} (seed {self.seed}, {self.content_hash()})"
        )


#: Dataclass field names, in declaration order (what :meth:`RunSpec.
#: with_seed` copies).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunSpec))


def _canonical_json(record: Mapping) -> str:
    """Sorted-key, compact JSON: the text every spec hash folds."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def save_spec(spec: RunSpec, path: PathLike) -> None:
    """Write a spec as a JSON file."""
    pathlib.Path(path).write_text(spec.to_json() + "\n", encoding="utf-8")


def load_spec(path: PathLike) -> RunSpec:
    """Load a spec from a JSON file written by :func:`save_spec`."""
    target = pathlib.Path(path)
    if not target.exists():
        raise ReproError(f"spec file not found: {target}")
    return RunSpec.from_json(target.read_text(encoding="utf-8"))
