"""The benchmark's four workloads, each driven through repro's public API.

Every workload is a closed loop: one client runs a batch, and the next batch
starts only after the previous one has ended.  A workload object has four
methods:

* ``build(seed)`` makes the inputs (the part of a run that ``setup_s``
  times): sweep manifests, a tuning study, or a stream spec and network;
* ``run(inputs, workdir, mark)`` executes one batch into a fresh work
  directory and returns a :class:`Batch`; ``mark`` is called with the cell
  name each time the batch moves to another cell, so a tracer can tag spans;
* ``digest(batch)`` reduces the batch's outputs to one hash, so repeats,
  traced runs and pinned seeds can be compared byte for byte;
* ``cross_check(inputs, batch)`` re-runs a sample of the batch's trials on
  another execution path and returns ``(trials re-run, records that
  differ)``.

The sizes are constructor arguments; :func:`make` builds a workload at the
sizes the benchmark measures, and the tests pass tiny ones.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
from time import perf_counter
from typing import Callable, Dict, List

from repro.experiments import (
    TrialExecutor,
    butterfly_hotrow_spec,
    butterfly_random_spec,
    catalog_spec,
    deep_random_spec,
    mesh_corner_shift_spec,
)
from repro.scenarios import ARRIVALS, RunSpec, build_network
from repro.sweeps import SweepManifest, encode_record, open_store, run_sweep
from repro.sweeps.store import AGGREGATE_FILENAME
from repro.telemetry import WindowedMetrics
from repro.traffic import make_stream_router, run_stream
from repro.tuning import REPORT_FILENAME, TuningCandidate, TuningStudy, run_study

#: Called with a cell name whenever a batch moves on to that cell.
Mark = Callable[[str], None]

#: The catalog scenarios the tuning study audits every candidate on.
AUDIT_PORTFOLIO = ("butterfly_random", "deep_random", "butterfly_hotrow")

#: The stream's Bernoulli arrival rate per step; low enough that the
#: admission cap drops nothing.
STREAM_RATE = 0.2
#: Simulated steps per ``metrics_window`` record of the stream.
STREAM_WINDOW = 10


def _unmarked(cell: str) -> None:
    pass


def _canonical(record) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


@dataclasses.dataclass
class Batch:
    """What one closed-loop batch did."""

    #: items completed: trials for sweeps and studies, packets delivered
    #: for the stream
    work: int
    #: operations tried (trials, or arrivals for the stream)
    attempted: int
    #: operations that failed: undelivered trials, dropped arrivals
    failed: int
    #: what :meth:`digest` and :meth:`cross_check` read
    outputs: object
    #: trials per host second of each cell, in batch order (sweeps only)
    cell_rates: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: host seconds between consecutive metrics windows (stream only)
    gaps: List[float] = dataclasses.field(default_factory=list)


def sweep_cells() -> Dict[str, RunSpec]:
    """The five fixed instances both sweep workloads run, in batch order.

    The instances keep their catalog seeds, so runs at different ``--seed``
    values time the same problems; the seed picks the Monte Carlo coins
    (and, without pinning, the per-trial instance seeds).
    """
    return {
        "deep_random": deep_random_spec(20, 6, 12),
        "butterfly_random": butterfly_random_spec(6),
        "butterfly_hotrow": butterfly_hotrow_spec(5, 32),
        "mesh_corner_shift": mesh_corner_shift_spec(6),
        "naive_hotrow": butterfly_hotrow_spec(5, 32, backend="naive"),
    }


class SweepWorkload:
    """One :func:`~repro.sweeps.run_sweep` per cell, each into a new store.

    ``pin=True`` is the fixed-problem design (every trial routes the same
    instance, so the lockstep kernel batches up to 64 trials); ``pin=False``
    gives every trial its own component seeds, so each trial rebuilds its
    network, workload and paths and runs lockstep at width 1.
    """

    def __init__(
        self,
        pin: bool,
        trials: int,
        shard_size: int = 64,
        check_trials: int = 8,
    ) -> None:
        self.pin = pin
        self.trials = trials
        self.shard_size = shard_size
        self.check_trials = check_trials

    def build(self, seed: int) -> Dict[str, SweepManifest]:
        return {
            cell: SweepManifest.from_base(
                spec,
                num_trials=self.trials,
                shard_size=self.shard_size,
                base_seed=seed,
                pin=self.pin,
                name=cell,
            )
            for cell, spec in sweep_cells().items()
        }

    def run(self, manifests, workdir, mark: Mark = _unmarked) -> Batch:
        rates: Dict[str, float] = {}
        outputs = {}
        undelivered = 0
        for cell, manifest in manifests.items():
            mark(cell)
            start = perf_counter()
            store = open_store(workdir, manifest)
            outcome = run_sweep(manifest, store, workers=1)
            rates[cell] = manifest.num_trials / (perf_counter() - start)
            if not outcome.complete:
                raise RuntimeError(f"sweep {cell} did not complete")
            aggregate = outcome.aggregate
            undelivered += aggregate["trials"] - aggregate["delivered_all"]
            outputs[cell] = (store.compacted_path, aggregate)
        trials = sum(m.num_trials for m in manifests.values())
        return Batch(trials, trials, undelivered, outputs, cell_rates=rates)

    def digest(self, batch: Batch) -> str:
        """Hash of every cell's compacted sweep bytes plus its aggregate."""
        h = hashlib.sha256()
        for cell, (compacted, aggregate) in batch.outputs.items():
            h.update(cell.encode())
            h.update(compacted.read_bytes())
            h.update(_canonical(aggregate))
        return h.hexdigest()

    def cross_check(self, manifests, batch: Batch):
        """Re-run ``check_trials`` trials per cell without lockstep.

        Each re-run record must equal, byte for byte, the line the sweep
        stored for that trial.  Returns ``(trials re-run, records that
        differ)``.
        """
        executor = TrialExecutor(lockstep=False)
        checked = mismatches = 0
        for cell, manifest in manifests.items():
            compacted, _ = batch.outputs[cell]
            lines = gzip.decompress(compacted.read_bytes()).splitlines(
                keepends=True
            )
            n = manifest.num_trials
            picks = sorted({i * n // self.check_trials for i in range(self.check_trials)})
            specs = [manifest.spec_for(i) for i in picks]
            for index, spec, record in zip(picks, specs, executor.run_chunk(specs)):
                line = encode_record(
                    index, spec.seed, spec.content_hash(), record.result
                )
                checked += 1
                mismatches += line != lines[index]
        return checked, mismatches


class TuneWorkload:
    """A miniature :func:`~repro.tuning.run_study` with audited candidates.

    ``run_study`` sweeps with telemetry on, which sends every trial down the
    per-trial reference engine, writes and re-reads the study's result
    cache, and fills one small sweep store per candidate and rung.
    """

    def __init__(
        self,
        budget: int = 128,
        rungs: int = 4,
        audit_trials: int = 3,
        ms=(None, 8, 6, 5),
        w_factors=(1.0, 0.75),
    ) -> None:
        self.budget = budget
        self.rungs = rungs
        self.audit_trials = audit_trials
        self.ms = ms
        self.w_factors = w_factors

    def build(self, seed: int) -> TuningStudy:
        candidates = [TuningCandidate()] + [
            TuningCandidate(
                set_congestion_target=3.0, m=m, w_factor=wf, q=0.5, oversplit=1.0
            )
            for m in self.ms
            for wf in self.w_factors
        ]
        return TuningStudy(
            base=catalog_spec("mesh_corner_shift", seed=seed),
            candidates=tuple(candidates),
            budget=self.budget,
            rungs=self.rungs,
            audit_trials=self.audit_trials,
            audit_catalog=AUDIT_PORTFOLIO,
            name="tune_audit",
        )

    def run(self, study, workdir, mark: Mark = _unmarked) -> Batch:
        """Run the study; its work is the trials its sweeps ran or
        re-emitted, counted from the sweep stores' aggregates (candidates
        the audit pruned ran no sweep)."""
        mark("study")
        run_study(study, workdir, workers=1)
        aggregates = [
            json.loads(path.read_text())
            for path in (workdir / "sweeps").glob(f"*/{AGGREGATE_FILENAME}")
        ]
        trials = sum(a["trials"] for a in aggregates)
        undelivered = trials - sum(a["delivered_all"] for a in aggregates)
        return Batch(trials, trials, undelivered, workdir / REPORT_FILENAME)

    def digest(self, batch: Batch) -> str:
        """Hash of the study's ``report.json`` bytes."""
        return hashlib.sha256(batch.outputs.read_bytes()).hexdigest()

    def cross_check(self, study, batch: Batch):
        """Nothing to re-run: every study trial already takes the
        per-trial path."""
        return 0, 0


class ServeWorkload:
    """``repro serve``'s wiring: an open-loop Bernoulli stream, greedy router.

    Open loop in simulated time: an arrival happens every step whatever the
    backlog, and the admission cap turns the excess into drops.  On the host
    the stream runs as fast as it can.  The stream runs on ``butterfly(4)``
    at arrival rate :data:`STREAM_RATE` with :data:`STREAM_WINDOW`-step
    metrics windows.
    """

    def __init__(self, steps: int = 5_000) -> None:
        self.steps = steps

    def build(self, seed: int):
        spec = RunSpec(
            topology="butterfly",
            topology_params={"dim": 4},
            arrival="bernoulli",
            arrival_params={"rate": STREAM_RATE, "horizon": None},
            backend="greedy",
            seed=seed,
            name="serve_stream",
        )
        return spec, build_network(spec)

    def run(self, inputs, workdir, mark: Mark = _unmarked) -> Batch:
        spec, net = inputs
        mark("stream")
        windows: List[dict] = []
        stamps: List[float] = []

        def sink(record: dict) -> None:
            stamps.append(perf_counter())
            windows.append(record)

        source = ARRIVALS.get(spec.arrival)(
            net, **{**spec.arrival_params, "seed": spec.arrival_seed()}
        )
        router = make_stream_router("greedy", seed=spec.seed + 2)
        start = perf_counter()
        summary = run_stream(
            net,
            source,
            router,
            max_steps=self.steps,
            metrics=WindowedMetrics(window=STREAM_WINDOW, sink=sink),
            path_seed=spec.selector_seed(),
            engine_seed=spec.seed + 3,
            max_in_flight=net.num_edges,
        )
        gaps = [b - a for a, b in zip([start] + stamps, stamps)]
        return Batch(
            summary.delivered,
            summary.arrivals,
            summary.dropped,
            (dataclasses.asdict(summary), windows),
            gaps=gaps,
        )

    def digest(self, batch: Batch) -> str:
        """Hash of the stream summary plus every metrics window."""
        summary, windows = batch.outputs
        return hashlib.sha256(
            _canonical({"summary": summary, "windows": windows})
        ).hexdigest()

    def cross_check(self, inputs, batch: Batch):
        """Nothing to re-run: the stream has a single execution path."""
        return 0, 0


def make(name: str, **sizes):
    """The named workload at the benchmark's sizes, or at ``sizes``."""
    if name == "mc_fixed":
        return SweepWorkload(pin=True, **{"trials": 256, **sizes})
    if name == "mc_instances":
        return SweepWorkload(pin=False, **{"trials": 32, **sizes})
    if name == "tune_audit":
        return TuneWorkload(**sizes)
    if name == "serve_stream":
        return ServeWorkload(**sizes)
    raise KeyError(f"unknown workload {name!r}")
