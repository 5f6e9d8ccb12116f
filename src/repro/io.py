"""JSON (de)serialization of networks, routing problems, results and audits.

Lets an experiment be captured as a file — exact topology, exact paths —
and replayed later or on another machine, independent of generator seeds.
Node labels may be nested tuples (all builders use them); JSON turns tuples
into lists, so the loader converts lists back to tuples recursively.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields
from typing import Union

from .core.invariants import AuditReport, Violation
from .errors import ReproError
from .net import LeveledNetwork
from .paths import PacketSpec, Path, RoutingProblem
from .sim import RunResult

PathLike = Union[str, pathlib.Path]

FORMAT_VERSION = 1


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def network_to_dict(net: LeveledNetwork) -> dict:
    """Plain-dict form of a leveled network."""
    return {
        "format": FORMAT_VERSION,
        "kind": "leveled_network",
        "name": net.name,
        "levels": [net.level(v) for v in net.nodes()],
        "labels": [net.label(v) for v in net.nodes()],
        "edges": [list(net.edge_endpoints(e)) for e in net.edges()],
    }


def network_from_dict(data: dict) -> LeveledNetwork:
    """Inverse of :func:`network_to_dict`."""
    if data.get("kind") != "leveled_network":
        raise ReproError(f"not a network record: kind={data.get('kind')!r}")
    return LeveledNetwork(
        data["levels"],
        [tuple(edge) for edge in data["edges"]],
        node_labels=[_tuplify(label) for label in data["labels"]],
        name=data.get("name", "loaded"),
    )


def problem_to_dict(problem: RoutingProblem) -> dict:
    """Plain-dict form of a routing problem (network + per-packet paths)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "routing_problem",
        "network": network_to_dict(problem.net),
        "packets": [
            {
                "source": spec.source,
                "destination": spec.destination,
                "path": list(spec.path.edges),
            }
            for spec in problem
        ],
    }


def problem_from_dict(data: dict) -> RoutingProblem:
    """Inverse of :func:`problem_to_dict`."""
    if data.get("kind") != "routing_problem":
        raise ReproError(f"not a problem record: kind={data.get('kind')!r}")
    net = network_from_dict(data["network"])
    specs = [
        PacketSpec(
            k,
            item["source"],
            item["destination"],
            Path(net, item["path"], source=item["source"]),
        )
        for k, item in enumerate(data["packets"])
    ]
    return RoutingProblem(net, specs)


def result_to_dict(result: RunResult) -> dict:
    """Plain-dict form of a run result (for archiving experiment outputs).

    The dict is shallow: it shares the result's containers (its lists and
    its ``extra`` and ``telemetry`` dicts) instead of deep-copying them,
    so serialize it before the result changes.  Every caller in the repo
    (the sweep store's ``encode_record``, ``ResultCache.store``) encodes
    it to JSON at once; the bytes equal those of a deep copy.
    """
    record = {f.name: getattr(result, f.name) for f in fields(result)}
    record["format"] = FORMAT_VERSION
    record["kind"] = "run_result"
    return record


def result_from_dict(data: dict) -> RunResult:
    """Inverse of :func:`result_to_dict` (used by the scenario result cache)."""
    kind = data.get("kind", "run_result")
    if kind != "run_result":
        raise ReproError(f"not a run-result record: kind={kind!r}")
    fields = {
        key: value
        for key, value in data.items()
        if key not in ("format", "kind")
    }
    try:
        return RunResult(**fields)
    except TypeError as exc:
        raise ReproError(f"malformed run-result record: {exc}") from exc


def audit_to_dict(report: AuditReport) -> dict:
    """Plain-dict form of an invariant :class:`~repro.core.AuditReport`.

    The result cache stores it next to :func:`result_to_dict`'s record,
    so a cache hit on an audited spec returns the verdict the run gave.
    """
    return {
        "format": FORMAT_VERSION,
        "kind": "audit_report",
        "violations": [
            {"invariant": v.invariant, "time": int(v.time), "detail": v.detail}
            for v in report.violations
        ],
        "checks_run": {name: int(count) for name, count in report.checks_run.items()},
        "max_set_congestion_seen": int(report.max_set_congestion_seen),
    }


def audit_from_dict(data: dict) -> AuditReport:
    """Inverse of :func:`audit_to_dict`."""
    kind = data.get("kind", "audit_report")
    if kind != "audit_report":
        raise ReproError(f"not an audit-report record: kind={kind!r}")
    try:
        report = AuditReport(
            violations=[
                Violation(item["invariant"], item["time"], item["detail"])
                for item in data["violations"]
            ],
            max_set_congestion_seen=data["max_set_congestion_seen"],
        )
        report.checks_run.update(data["checks_run"])
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed audit-report record: {exc}") from exc
    return report


def save_json(data: dict, path: PathLike) -> None:
    """Write a record produced by the ``*_to_dict`` functions."""
    pathlib.Path(path).write_text(
        json.dumps(data, indent=1, sort_keys=True), encoding="utf-8"
    )


def load_json(path: PathLike) -> dict:
    """Read a record written by :func:`save_json`."""
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def save_problem(problem: RoutingProblem, path: PathLike) -> None:
    """Capture a routing problem as a replayable JSON file."""
    save_json(problem_to_dict(problem), path)


def load_problem(path: PathLike) -> RoutingProblem:
    """Load a problem saved with :func:`save_problem`."""
    return problem_from_dict(load_json(path))
