#!/usr/bin/env python3
"""Check that lockstep sweeps store what per-trial sweeps store.

Each case builds one sweep manifest and runs it twice with
:func:`repro.sweeps.run_sweep`, once with lockstep on and once with
``lockstep=False``, into fresh stores.  Both runs must complete, their
compacted streams and aggregates must be byte-equal, and the lockstep
run's last heartbeat must name a lockstep executor.  Each case then makes
its own checks and prints a one-line summary.

Run every case, or name some::

    python tools/check_lockstep_sweeps.py
    python tools/check_lockstep_sweeps.py audited gathered

Any failed check raises, so the exit code is non-zero.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import catalog_spec  # noqa: E402
from repro.sweeps import (  # noqa: E402
    SweepHeartbeat,
    SweepManifest,
    open_store,
    run_sweep,
)


class Case(NamedTuple):
    """One manifest, run with lockstep on and off, and its own checks."""

    #: what the case checks, for ``--help``-style listing
    doc: str
    manifest: Callable[[], SweepManifest]
    #: ``check(aggregate, beat, root)`` asserts and returns the summary
    #: line
    check: Callable
    telemetry: bool = False


def run_both(case: Case):
    """Run the case's manifest with lockstep on and off; the shared
    assertions.  Returns ``(aggregate, last beat, scratch root)``."""
    manifest = case.manifest()
    root = pathlib.Path(tempfile.mkdtemp())
    out = {}
    for lockstep in (True, False):
        beats = []
        store = open_store(root / f"lockstep-{lockstep}", manifest)
        outcome = run_sweep(
            manifest, store, telemetry=case.telemetry, lockstep=lockstep,
            heartbeat=SweepHeartbeat(beats.append, total=manifest.num_trials),
        )
        assert outcome.complete, outcome
        out[lockstep] = (
            store.compacted_path.read_bytes(),
            store.aggregate_path.read_bytes(),
            beats[-1],
        )
    (stream, agg, beat), (ref_stream, ref_agg, _) = out[True], out[False]
    assert stream == ref_stream, "compacted streams diverge"
    assert agg == ref_agg, "aggregates diverge"
    assert beat["executor"].startswith("lockstep"), beat
    return json.loads(agg), beat, root


# ------------------------------------------------------------------ cases


def telemetry_manifest():
    return SweepManifest.from_base(
        catalog_spec("butterfly_hotrow"), num_trials=64,
        shard_size=64, pin=True,
    )


def telemetry_check(aggregate, beat, root):
    telemetry = aggregate["telemetry"]
    assert telemetry["runs"] == 64, telemetry
    return (
        f"telemetry sweep: 64 trials on {beat['executor']}, "
        f"counters byte-equal to per-trial "
        f"({telemetry['events_total']} events, "
        f"{telemetry['deflections']['safe']} safe deflections)"
    )


def audited_spec():
    return catalog_spec("mesh_corner_shift", seed=0).with_params(
        audit=True, set_congestion_target=3.0, m=5, w_factor=1.0,
        q=0.5, oversplit=1.0,
    )


def audited_manifest():
    return SweepManifest.from_base(
        audited_spec(), num_trials=64, shard_size=64, pin=True,
    )


def audited_check(aggregate, beat, root):
    assert aggregate["audited"] == 64, aggregate
    assert aggregate["audit_violations"] > 0, aggregate
    # `repro sweep` on the spec exits 1 (violations), without a result
    # cache and with one, first filling it and then hitting it; all three
    # write the same compacted stream.
    spec_path = root / "audited.json"
    spec_path.write_text(json.dumps(audited_spec().to_dict()))
    streams = []
    for store, extra in (
        ("cli", []),
        ("cli-fill", ["--cache", str(root / "cache")]),
        ("cli-hit", ["--cache", str(root / "cache")]),
    ):
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--spec",
             str(spec_path), "--trials", "64", "--shard-size", "64",
             "--fixed-problem", "--store", str(root / store)] + extra,
            stdout=subprocess.PIPE, text=True,
        )
        assert cli.returncode == 1, (store, cli.returncode, cli.stdout)
        (store_dir,) = (root / store).iterdir()
        streams.append((store_dir / "sweep.jsonl.gz").read_bytes())
    assert streams[1] == streams[0], "cache-filling sweep diverges"
    assert streams[2] == streams[0], "cache-hit sweep diverges"
    return (
        f"audited sweep: 64 trials on {beat['executor']}, "
        f"{aggregate['audit_violations']} of 64 audits violated, "
        f"byte-equal to per-trial; repro sweep exits 1, "
        f"also on a result-cache fill and hit"
    )


def unpinned_manifest():
    manifest = SweepManifest.from_base(
        catalog_spec("butterfly_random"), num_trials=64,
        shard_size=64, pin=False,
    )
    scenarios = {manifest.spec_for(i).scenario_hash() for i in range(64)}
    assert len(scenarios) == 64, "trials must route distinct instances"
    return manifest


def unpinned_check(aggregate, beat, root):
    assert beat["lockstep_trials"] == 64, beat
    return (
        f"unpinned sweep: 64 instances on {beat['executor']}, "
        f"byte-equal to per-trial"
    )


def union_manifest():
    manifest = SweepManifest.from_base(
        catalog_spec("deep_random").with_params(audit=True),
        num_trials=64, shard_size=64, pin=False,
    )
    seeds = {manifest.spec_for(i).topology_seed() for i in range(64)}
    assert len(seeds) == 64, "trials must route distinct networks"
    return manifest


def union_check(aggregate, beat, root):
    return (
        f"unpinned random_leveled sweep: 64 networks, "
        f"{beat['lockstep_trials']} trials on {beat['executor']}, "
        f"byte-equal to per-trial"
    )


def gathered_manifest():
    return SweepManifest.from_base(
        catalog_spec("butterfly_random"), num_trials=128, shard_size=16,
    )


def gathered_check(aggregate, beat, root):
    assert beat["executor"] == "lockstep[w=128]", beat
    assert beat["lockstep_trials"] == 128, beat
    return (
        f"gathered sweep: 8 shards of 16 on {beat['executor']}, "
        f"byte-equal to per-trial"
    )


CASES = {
    "telemetry": Case(
        "a pinned 64-trial butterfly_hotrow sweep with telemetry: the "
        "kernel's counters equal the per-trial observers'",
        telemetry_manifest, telemetry_check, telemetry=True,
    ),
    "audited": Case(
        "a pinned 64-trial audited mesh_corner_shift sweep of the tuning "
        "benchmark's m=5 candidate, which breaks I_f on most seeds; then "
        "`repro sweep` on it, plain and with a result-cache fill and hit",
        audited_manifest, audited_check,
    ),
    "unpinned": Case(
        "an unpinned 64-trial butterfly_random sweep: 64 instances over "
        "one butterfly in one lockstep batch",
        unpinned_manifest, unpinned_check,
    ),
    "union": Case(
        "an unpinned audited 64-trial deep_random sweep: one lockstep "
        "batch over the union of 64 random_leveled networks",
        union_manifest, union_check,
    ),
    "gathered": Case(
        "a pinned 128-trial butterfly_random sweep in shards of 16, "
        "gathered into one lockstep batch of 128",
        gathered_manifest, gathered_check,
    ),
}


def main(argv) -> int:
    names = argv or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        listing = "\n".join(f"  {n}: {c.doc}" for n, c in CASES.items())
        print(f"unknown case(s) {unknown}; cases:\n{listing}", file=sys.stderr)
        return 2
    for name in names:
        case = CASES[name]
        print(case.check(*run_both(case)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
