"""Result and scenario caches keyed by spec content.

Two memoization layers, both hanging off the purity of the scenario
pipeline (single-seed determinism is the repo's core invariant):

* :class:`ResultCache` — **on disk, across processes.**  Keyed by
  :meth:`RunSpec.content_hash`; the payload stores the full spec dict
  alongside the serialized :class:`~repro.sim.RunResult` (and an audited
  trial's :class:`~repro.core.AuditReport`), letting a hit verify it
  belongs to the requesting spec (a hash collision or hand-edited file
  degrades to a miss, never to a wrong answer).
* :class:`ScenarioCache` — **in process, within a sweep.**  Keyed by
  :meth:`RunSpec.scenario_hash`; holds materialized ``(network, geometry,
  paths)`` builds so trials that share a scenario (Monte Carlo sweeps over
  routing coins, see :meth:`RunSpec.with_pinned_scenario`) pay problem
  construction once.  Safe because trials never mutate their problem:
  the engine and the lockstep kernel only read the shared network,
  geometry and paths.

The default on-disk location is ``$REPRO_CACHE_DIR`` or ``.repro_cache/``
under the current directory; sweeps and the CLI pass an explicit directory.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from ..io import audit_from_dict, audit_to_dict, result_from_dict, result_to_dict
from ..sim import RunResult
from .registry import TOPOLOGIES
from .spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..net import LeveledNetwork
    from ..paths import RoutingProblem

PathLike = Union[str, pathlib.Path]

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIRNAME = ".repro_cache"
CACHE_FORMAT = 1

#: Default bound on distinct warm scenarios held in memory per process.  A
#: fixed-problem sweep uses one entry and an instance sweep reuses none, so
#: a small bound costs no rebuilds there and keeps single-use problems and
#: networks from piling up (docs/performance.md, "Instance sweeps on the
#: lockstep kernel").
DEFAULT_SCENARIO_CAPACITY = 8


class _LRUTable:
    """One bounded LRU table of :class:`ScenarioCache`, with its own counts."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: str, value) -> None:
        self.entries[key] = value
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self.entries),
        }


class ScenarioCache:
    """LRU cache of materialized scenarios, keyed by scenario hash.

    One instance lives in each sweep worker (and in the parent for serial
    sweeps).  ``problem_for`` returns the *same* problem object for every
    spec sharing a scenario hash; reuse is semantically safe because
    engines and schedulers treat problems as read-only plain data.
    Networks are cached separately so problem builds share topology
    construction too — including across specs whose scenarios differ only
    in seeds that a deterministic topology ignores (see
    :func:`_network_key`).
    """

    def __init__(self, capacity: int = DEFAULT_SCENARIO_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._problems = _LRUTable(self.capacity)
        self._networks = _LRUTable(self.capacity)

    def __len__(self) -> int:
        return len(self._problems.entries)

    def network_for(self, spec: RunSpec) -> "LeveledNetwork":
        """The spec's topology, built once per distinct topology content."""
        from .dispatch import build_network

        key = _network_key(spec)
        net = self._networks.get(key)
        if net is None:
            net = build_network(spec)
            net.geometry()  # precompute the dense tables while warm
            self._networks.put(key, net)
        return net

    def problem_for(self, spec: RunSpec) -> "RoutingProblem":
        """The spec's routing problem, built once per scenario hash."""
        from .dispatch import build_problem

        key = spec.scenario_hash()
        problem = self._problems.get(key)
        if problem is None:
            problem = build_problem(spec, net=self.network_for(spec))
            self._problems.put(key, problem)
        return problem

    def stats(self) -> dict:
        """Per-table hit/miss counters and occupancy (for bench reports).

        ``{"problems": {"hits", "misses", "size"}, "networks": {...}}``;
        the network table is consulted only on problem misses, so its hits
        count topology reuse across distinct scenarios.
        """
        return {
            "problems": self._problems.stats(),
            "networks": self._networks.stats(),
        }

    def clear(self) -> None:
        """Drop every cached build (counters keep accumulating)."""
        self._problems.entries.clear()
        self._networks.entries.clear()


def _network_key(spec: RunSpec) -> str:
    """Cache key for the topology component alone.

    The topology seed is part of the key unless the builder is registered
    ``deterministic=True`` (it ignores its seed), so unpinned sweeps over a
    fixed topology share one network while seeded builders — and any
    unmarked third-party builder — still get one network per seed.  The
    lockstep executor groups trials on the topology's name and unseeded
    params instead, so one batch may span several such networks (an
    unpinned ``random_leveled`` sweep routes over their disjoint union).
    """
    params = dict(spec.topology_params)
    if getattr(TOPOLOGIES.get(spec.topology), "deterministic", False):
        params.pop("seed", None)  # a pinned spec carries it explicitly
    else:
        params["seed"] = spec.topology_seed()
    return json.dumps(
        {"topology": spec.topology, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )


class ResultCache:
    """Directory of ``<content_hash>.json`` result records."""

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache at ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
        root = os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIRNAME
        return cls(root)

    def path_for(self, spec: RunSpec) -> pathlib.Path:
        """The file that would hold this spec's cached result."""
        return self.root / f"{spec.content_hash()}.json"

    def load_payload(self, content_hash: str) -> Optional[dict]:
        """The raw record payload for a content hash, or None.

        No spec validation is possible from a bare hash; callers that hold
        the spec should use :meth:`load` / :meth:`load_record` instead.
        ``repro report`` uses this to render from a hash alone.
        """
        path = self.root / f"{content_hash}.json"
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("kind") != "scenario_result":
            return None
        return payload

    def _validated_payload(self, spec: RunSpec) -> Optional[dict]:
        payload = self.load_payload(spec.content_hash())
        if payload is None:
            return None
        expected = spec.to_dict()
        expected.pop("name")
        stored = dict(payload.get("spec", {}))
        stored.pop("name", None)
        if stored != expected:
            # Hash collision or stale/edited record: treat as a miss.
            return None
        return payload

    def load(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or None on miss/corruption."""
        payload = self._validated_payload(spec)
        if payload is None:
            return None
        try:
            return result_from_dict(payload["result"])
        except Exception:
            return None

    def load_record(
        self, spec: RunSpec
    ) -> Optional[Tuple[RunResult, Optional[dict], Any]]:
        """Cached ``(result, timings, audit)`` for ``spec``, or None on miss.

        ``timings`` is the wall-clock sidecar recorded when the result was
        produced per trial under telemetry — advisory data, kept out of the
        result itself.  It is None otherwise, including for results a
        lockstep batch stored: those carry counters but no per-trial
        spans.  ``audit`` is the trial's :class:`~repro.core.AuditReport`
        when the spec is audited (``backend_params["audit"]``), else None.
        A record of an audited spec that holds no report loads as a miss,
        so rerunning the trial restores its verdict.
        """
        payload = self._validated_payload(spec)
        if payload is None:
            return None
        audit = None
        try:
            result = result_from_dict(payload["result"])
            if "audit" in payload:
                audit = audit_from_dict(payload["audit"])
        except Exception:
            return None
        if audit is None and spec.backend_params.get("audit"):
            return None
        return result, payload.get("timings"), audit

    def store(
        self,
        spec: RunSpec,
        result: RunResult,
        timings: Optional[dict] = None,
        audit=None,
    ) -> pathlib.Path:
        """Persist one result (and its audit report, if any); returns the
        record path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        payload = {
            "kind": "scenario_result",
            "format": CACHE_FORMAT,
            "hash": spec.content_hash(),
            "spec": spec.to_dict(),
            "result": result_to_dict(result),
        }
        if timings is not None:
            payload["timings"] = timings
        if audit is not None:
            payload["audit"] = audit_to_dict(audit)
        tmp = path.with_suffix(".json.tmp")
        # Compact separators keep json on its C encoder (any ``indent``
        # selects the pure-Python one); records written indented by earlier
        # versions load the same.
        tmp.write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )
        tmp.replace(path)
        return path

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for record in self.root.glob("*.json"):
                record.unlink()
                removed += 1
        return removed
