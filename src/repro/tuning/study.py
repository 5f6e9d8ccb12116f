"""Tuning studies: candidate grids + the successive-halving search.

A :class:`TuningStudy` is a frozen, JSON-round-trippable description of a
parameter search: one pinned base scenario, a grid of
:class:`TuningCandidate` parameterizations, and a trial budget split
across successive-halving rungs.  :func:`run_study` executes it by
minting one :class:`~repro.sweeps.SweepManifest` per (candidate, rung)
and driving each through :func:`~repro.sweeps.run_sweep` into a shared
:class:`~repro.sweeps.SweepStore` root — so a study inherits the sweep
engine's guarantees wholesale: killed studies resume from the last valid
record, every shard's bytes are a pure function of the manifest, and a
resumed study's store is byte-identical to an uninterrupted one.

The search prunes early: each rung runs ``eta``-times fewer trials than
the next, and a candidate is dropped the moment it fails the invariant
audit (rung 0, before any sweep spend) or its delivery-success rate
falls below the study's threshold.  Survivors are ranked by mean
makespan; the best ``1/eta`` advance.  See docs/tuning.md.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..rng import stable_hash_seed
from ..scenarios import RunSpec

PathLike = Union[str, pathlib.Path]

#: The :meth:`~repro.core.AlgorithmParams.practical` kwargs a candidate
#: may pin, in canonical slug order.
CANDIDATE_FIELDS = ("set_congestion_target", "m", "w_factor", "q", "oversplit")

_SLUGS = {
    "set_congestion_target": "c",
    "m": "m",
    "w_factor": "wf",
    "q": "q",
    "oversplit": "o",
}


def _fmt(value: float) -> str:
    """Compact numeric slug: drop a trailing ``.0``."""
    text = f"{value:g}"
    return text


@dataclass(frozen=True)
class TuningCandidate:
    """One point of the (c*, m, w_factor, q, oversplit) search space.

    ``None`` fields fall through to
    :meth:`~repro.core.AlgorithmParams.practical`'s structural defaults,
    so the all-``None`` candidate *is* the paper-faithful
    parameterization — include it in every grid as the comparison
    baseline.
    """

    set_congestion_target: Optional[float] = None
    m: Optional[int] = None
    w_factor: Optional[float] = None
    q: Optional[float] = None
    oversplit: Optional[float] = None

    def params_kwargs(self) -> Dict[str, float]:
        """The non-default kwargs, ready for ``backend_params``."""
        return {
            name: getattr(self, name)
            for name in CANDIDATE_FIELDS
            if getattr(self, name) is not None
        }

    def key(self) -> str:
        """Stable slug naming this candidate (``default`` for all-None)."""
        parts = [
            f"{_SLUGS[name]}{_fmt(getattr(self, name))}"
            for name in CANDIDATE_FIELDS
            if getattr(self, name) is not None
        ]
        return "-".join(parts) if parts else "default"

    def to_dict(self) -> dict:
        return dict(self.params_kwargs())

    @classmethod
    def from_dict(cls, record: dict) -> "TuningCandidate":
        unknown = set(record) - set(CANDIDATE_FIELDS)
        if unknown:
            raise ReproError(
                f"unknown tuning-candidate fields: {sorted(unknown)}"
            )
        kwargs = dict(record)
        if "m" in kwargs:
            kwargs["m"] = int(kwargs["m"])
        return cls(**kwargs)


def default_grid(
    c_stars: Sequence[Optional[float]] = (None, 3.0),
    ms: Sequence[Optional[int]] = (None,),
    w_factors: Sequence[Optional[float]] = (None, 4.0, 3.0, 2.0),
    qs: Sequence[Optional[float]] = (None, 0.25),
    oversplits: Sequence[Optional[float]] = (None, 1.0),
) -> List[TuningCandidate]:
    """Cartesian candidate grid, baseline (all-default) first.

    Duplicate points collapse; the all-``None`` baseline is always
    included so every study carries its own paper-faithful comparison.
    """
    seen = {}
    baseline = TuningCandidate()
    seen[baseline.key()] = baseline
    for c_star in c_stars:
        for m in ms:
            for w_factor in w_factors:
                for q in qs:
                    for oversplit in oversplits:
                        cand = TuningCandidate(
                            set_congestion_target=c_star,
                            m=m,
                            w_factor=w_factor,
                            q=q,
                            oversplit=oversplit,
                        )
                        seen.setdefault(cand.key(), cand)
    return list(seen.values())


@dataclass(frozen=True)
class TuningStudy:
    """A reproducible parameter search over one pinned scenario.

    ``budget`` is the per-candidate trial count at the final rung; rung
    ``r`` (0-based) runs ``ceil(budget / eta^(rungs-1-r))`` trials.
    Because every rung's manifest derives its trial seeds from the same
    pinned base spec, a rung's trial set is a prefix of the next rung's
    — re-runs of surviving candidates re-emit the earlier trials from
    the study's result cache instead of re-routing them.
    """

    base: RunSpec
    candidates: Tuple[TuningCandidate, ...]
    budget: int = 32
    rungs: int = 3
    eta: int = 2
    success_threshold: float = 0.99
    audit_trials: int = 2
    #: extra catalog scenario names whose instances also run the audit
    #: gate — a portfolio gate, so a candidate that keeps the invariants
    #: on the base instance but violates them on another family is still
    #: pruned before any budget is spent on it.
    audit_catalog: Tuple[str, ...] = ()
    shard_size: int = 256
    name: str = ""

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ReproError(f"budget must be >= 1, got {self.budget}")
        if self.rungs < 1:
            raise ReproError(f"rungs must be >= 1, got {self.rungs}")
        if self.eta < 2:
            raise ReproError(f"eta must be >= 2, got {self.eta}")
        if not 0.0 <= self.success_threshold <= 1.0:
            raise ReproError(
                f"success_threshold must be a probability, got "
                f"{self.success_threshold}"
            )
        if self.audit_trials < 0:
            raise ReproError(
                f"audit_trials must be >= 0, got {self.audit_trials}"
            )
        if not self.candidates:
            raise ReproError("a tuning study needs at least one candidate")
        if self.base.backend != "frontier":
            raise ReproError(
                "tuning studies search frontier-algorithm parameters; got "
                f"backend {self.base.backend!r}"
            )
        keys = [cand.key() for cand in self.candidates]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ReproError(f"duplicate tuning candidates: {dupes}")
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "audit_catalog", tuple(self.audit_catalog))

    # ------------------------------------------------------------- schedule

    def rung_trials(self, rung: int) -> int:
        """Trial budget of rung ``rung`` (0-based, final rung = budget)."""
        if not 0 <= rung < self.rungs:
            raise ReproError(f"rung out of range: {rung} of {self.rungs}")
        return max(1, math.ceil(self.budget / self.eta ** (self.rungs - 1 - rung)))

    def candidate_spec(self, candidate: TuningCandidate) -> RunSpec:
        """The base scenario under one candidate's parameterization."""
        spec = self.base.with_params(**candidate.params_kwargs())
        label = self.name or self.base.name or "tune"
        return dataclasses.replace(spec, name=f"{label}[{candidate.key()}]")

    # ------------------------------------------------------------ round-trip

    def to_dict(self) -> dict:
        return {
            "kind": "tuning_study",
            "name": self.name,
            "base": self.base.to_dict(),
            "candidates": [cand.to_dict() for cand in self.candidates],
            "budget": self.budget,
            "rungs": self.rungs,
            "eta": self.eta,
            "success_threshold": self.success_threshold,
            "audit_trials": self.audit_trials,
            "audit_catalog": list(self.audit_catalog),
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TuningStudy":
        if record.get("kind") != "tuning_study":
            raise ReproError(
                f"not a tuning study record: kind={record.get('kind')!r}"
            )
        return cls(
            base=RunSpec.from_dict(record["base"]),
            candidates=tuple(
                TuningCandidate.from_dict(c) for c in record["candidates"]
            ),
            budget=int(record["budget"]),
            rungs=int(record["rungs"]),
            eta=int(record["eta"]),
            success_threshold=float(record["success_threshold"]),
            audit_trials=int(record["audit_trials"]),
            audit_catalog=tuple(record.get("audit_catalog", ())),
            shard_size=int(record["shard_size"]),
            name=record.get("name", ""),
        )

    def study_hash(self) -> str:
        """16-hex content address (the ``name`` label is excluded).

        Same canonicalization discipline as
        :meth:`~repro.scenarios.RunSpec.content_hash`: canonical JSON
        bytes folded through :func:`repro.rng.stable_hash_seed`, so the
        hash is stable across processes and machines.
        """
        record = self.to_dict()
        record.pop("name")
        record["base"] = self.base.hash_payload().decode("utf-8")
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return format(stable_hash_seed(len(payload), *payload), "016x")

    def describe(self) -> str:
        label = self.name or "study"
        return (
            f"{label}: {len(self.candidates)} candidates x {self.budget} "
            f"trials over {self.rungs} rungs (eta={self.eta}, "
            f"success >= {self.success_threshold:.0%}, "
            f"hash {self.study_hash()})"
        )


def save_study(study: TuningStudy, path: PathLike) -> None:
    """Write a study as a JSON file (the checked-in reproducible form)."""
    pathlib.Path(path).write_text(
        json.dumps(study.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_study(path: PathLike) -> TuningStudy:
    """Load a study written by :func:`save_study`."""
    target = pathlib.Path(path)
    if not target.exists():
        raise ReproError(f"tuning study not found: {target}")
    return TuningStudy.from_dict(
        json.loads(target.read_text(encoding="utf-8"))
    )
