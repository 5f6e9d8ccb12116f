"""Command-line interface: ``python -m repro <command>``.

Every command that runs a scenario takes it as a
:class:`~repro.scenarios.RunSpec` JSON (``--spec PATH``, or ``-`` for
stdin); ``repro spec NAME`` prints a catalog entry to start from, and
continuous-injection runs are arrival specs (``repro spec dynamic_greedy``):

* ``topo``    — build a ``name:args`` topology, validate it, print its profile;
* ``params``  — show the algorithm parameters (practical and theory-exact)
  for a given (C, L, N);
* ``frames``  — render the Figure-2 film strip for a parameterization;
* ``sweep``   — seeded multi-trial sweep of a spec through the sharded
  manifest engine (resumable store, streaming aggregate);
* ``tune``    — successive-halving parameter search over a frontier spec;
* ``list``    — show the catalog specs and every registered component;
* ``spec``    — print (or write) a catalog spec as JSON;
* ``run``     — run one spec, optionally result-cached, with
  ``--trace``/``--telemetry`` observability (an audited run is a spec
  with ``"backend_params": {"audit": true}``);
* ``serve``   — open-loop streaming service: a spec with an ``arrival``
  process in, windowed live metrics (JSONL or SSE) out;
* ``report``  — render a run summary from a spec, cached result, result
  file, or JSONL trace — without re-running anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from .analysis import format_kv
from .core import AlgorithmParams, FrameGeometry, compute_theory_values
from .errors import ReproError
from .net import LeveledNetwork, profile, validate_leveled
from .scenarios import (
    PATH_SELECTORS,
    TOPOLOGIES,
    WORKLOADS,
    RunSpec,
    build_network,
    load_spec,
    run_cached,
    run_trial,
    save_spec,
)

#: Environment variable through which ``repro experiment --workers`` hands
#: the trial-sweep worker count to the benchmark harness
#: (``benchmarks/_common.bench_workers``).
WORKERS_ENV_VAR = "REPRO_BENCH_WORKERS"

# ------------------------------------------------------- topology spec syntax
#
# ``name:arg1:arg2`` shorthand over the topology registry.  Each parser maps
# the positional ``rest`` onto the registered builder's keyword parameters;
# registry names without a parser here are reachable via ``repro run --spec``.


def _parse_grid(rest: str) -> Tuple[int, int]:
    first, _, second = rest.partition("x")
    return int(first), int(second or first)


def _topo_args_butterfly(rest: str) -> dict:
    return {"dim": int(rest)}


def _topo_args_mesh(rest: str) -> dict:
    rows, cols = _parse_grid(rest)
    return {"rows": rows, "cols": cols}


def _topo_args_line(rest: str) -> dict:
    return {"length": int(rest)}


def _topo_args_height(rest: str) -> dict:
    return {"height": int(rest)}


def _topo_args_diamond(rest: str) -> dict:
    width, depth = _parse_grid(rest)
    return {"width": width, "depth": depth}


def _topo_args_random(rest: str) -> dict:
    width, _, depth = rest.partition("x")
    return {"width": int(width), "depth": int(depth)}


_TOPOLOGY_ARG_PARSERS = {
    "butterfly": _topo_args_butterfly,
    "hypercube": _topo_args_butterfly,
    "omega": _topo_args_butterfly,
    "benes": _topo_args_butterfly,
    "mesh": _topo_args_mesh,
    "line": _topo_args_line,
    "fattree": _topo_args_height,
    "fat_tree": _topo_args_height,
    "btree": _topo_args_height,
    "diamond": _topo_args_diamond,
    "random": _topo_args_random,
    "random_leveled": _topo_args_random,
}


def build_topology(spec: str, seed: int = 0) -> LeveledNetwork:
    """Materialize ``name:arg1:arg2`` shorthand through the topology registry.

    Examples: ``butterfly:5``, ``mesh:8x8``, ``hypercube:5``, ``line:20``,
    ``omega:4``, ``fattree:4``, ``btree:4``, ``random:6x20`` (width x depth).
    """
    name, _, rest = spec.partition(":")
    name = name.lower()
    parser = _TOPOLOGY_ARG_PARSERS.get(name)
    if parser is None:
        # Unknown names get the registry's suggestion-bearing error; names
        # that are registered but take structured parameters (multidim,
        # layered, ...) are only reachable through spec files.
        TOPOLOGIES.get(name)
        raise SystemExit(
            f"topology {name!r} takes structured parameters; run it via "
            "'repro run --spec' instead"
        )
    try:
        params = parser(rest)
    except ValueError as exc:
        raise SystemExit(f"bad topology spec {spec!r}: {exc}") from exc
    return TOPOLOGIES.get(name)(seed=seed, **params)


def _read_spec(arg: str) -> RunSpec:
    """The ``--spec`` argument: a JSON file path, or ``-`` for stdin."""
    if arg == "-":
        return RunSpec.from_json(sys.stdin.read())
    return load_spec(arg)


# ------------------------------------------------------------------ commands


def cmd_topo(args: argparse.Namespace) -> int:
    net = build_topology(args.spec, seed=args.seed)
    report = validate_leveled(net)
    prof = profile(net)
    print(net.describe())
    print(f"validation : {report.summary()}")
    print(
        f"degrees    : min {prof.min_degree}, max {prof.max_degree}, "
        f"mean {prof.mean_degree:.2f}"
    )
    sizes = prof.level_sizes
    shown = (
        " ".join(map(str, sizes))
        if len(sizes) <= 24
        else " ".join(map(str, sizes[:24])) + " ..."
    )
    print(f"level sizes: {shown}")
    return 0 if report.ok else 1


def cmd_params(args: argparse.Namespace) -> int:
    practical = AlgorithmParams.practical(args.C, args.L, args.N)
    print(format_kv(practical.describe(), title="practical parameters"))
    tv = compute_theory_values(args.C, args.L, args.N)
    print()
    print(
        format_kv(
            {
                "a": tv.a,
                "m": tv.m,
                "q": tv.q,
                "w": tv.w,
                "p0": tv.p0,
                "p1": tv.p1,
                "aC (frontier sets)": tv.a * args.C,
                "amC+L (phases)": tv.total_phases,
                "total steps": tv.total_steps,
                "steps / (C+L)": tv.total_steps / (args.C + args.L),
            },
            title="Section 2.1 theory-exact values (reconstructed)",
        )
    )
    return 0


def cmd_frames(args: argparse.Namespace) -> int:
    from .viz import frame_film_strip

    params = AlgorithmParams.practical(
        args.C, args.L, args.N, m=args.m, w=args.w
    )
    geometry = FrameGeometry(params)
    print(
        f"frames: {params.num_sets} sets, m={params.m}, L={args.L} "
        f"({params.total_phases} phases)"
    )
    print(frame_film_strip(geometry, 0, min(args.phases, params.total_phases)))
    return 0


def _benchmarks_dir():
    import pathlib

    # repo layout: src/repro/cli.py -> repo root / benchmarks
    root = pathlib.Path(__file__).resolve().parents[2]
    candidate = root / "benchmarks"
    return candidate if candidate.is_dir() else None


def _experiment_modules(bench_dir) -> dict:
    """Experiment id -> bench module: ``bench_presets.py`` is ``presets``,
    ``bench_t1_scaling.py`` is ``t1``.  The throughput floors in
    ``bench_engine_throughput.py`` are not an experiment."""
    return {
        p.stem[len("bench_"):].split("_")[0]: p
        for p in sorted(bench_dir.glob("bench_*.py"))
        if p.name != "bench_engine_throughput.py"
    }


def _parse_shard_ids(text: str) -> list:
    """Parse ``--shard`` syntax: comma-separated ids and ranges (``0,2,5-7``).

    A token that is not an id or an increasing range raises
    :class:`ReproError`, so a typo never selects nothing and exits 0.
    """
    shards = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "-" in token:
                lo, hi = (int(part) for part in token.split("-", 1))
            else:
                lo = hi = int(token)
        except ValueError:
            raise ReproError(
                f"--shard: {token!r} is not a shard id or range"
            ) from None
        if lo > hi:
            raise ReproError(f"--shard: range {token!r} is reversed")
        shards.extend(range(lo, hi + 1))
    return shards


def cmd_sweep(args: argparse.Namespace) -> int:
    """The sharded manifest engine behind ``repro sweep`` (docs/sweeps.md)."""
    import dataclasses
    import pathlib

    from .sweeps import (
        DEFAULT_SHARD_SIZE,
        SweepHeartbeat,
        SweepManifest,
        load_manifest,
        open_store,
        print_sweep_report,
        run_sweep,
        save_manifest,
    )

    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    manifest_path = pathlib.Path(args.manifest) if args.manifest else None
    if manifest_path is not None and manifest_path.exists():
        manifest = load_manifest(manifest_path)
        if args.shard_size is not None and args.shard_size != manifest.shard_size:
            print(
                f"error: --shard-size {args.shard_size} conflicts with "
                f"manifest shard_size {manifest.shard_size}",
                file=sys.stderr,
            )
            return 2
    else:
        if args.spec is None:
            print(
                "error: --spec is required unless --manifest names an "
                "existing file",
                file=sys.stderr,
            )
            return 2
        base = _read_spec(args.spec)
        if not args.fixed_problem:
            # Strip explicit component seeds so each trial's master seed
            # derives its own component streams: one independent instance
            # per trial.
            strip = lambda params: {  # noqa: E731
                k: v for k, v in params.items() if k != "seed"
            }
            base = dataclasses.replace(
                base,
                topology_params=strip(base.topology_params),
                workload_params=strip(base.workload_params),
                selector_params=strip(base.selector_params),
                arrival_params=strip(base.arrival_params),
            )
        manifest = SweepManifest.from_base(
            base,
            num_trials=args.trials,
            shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
            pin=args.fixed_problem,
        )
        if manifest_path is not None:
            save_manifest(manifest, manifest_path)
            print(f"manifest  : wrote {manifest_path}")
    print(f"manifest  : {manifest.describe()}")
    if args.store is None:
        # Manifest-only invocation: emit/describe and stop.
        return 0

    shards = _parse_shard_ids(args.shard) if args.shard else None
    heartbeat = (
        SweepHeartbeat(args.progress, total=manifest.num_trials)
        if args.progress
        else None
    )

    store = open_store(args.store, manifest)
    outcome = run_sweep(
        manifest,
        store,
        workers=args.workers,
        shards=shards,
        resume=args.resume,
        telemetry=args.telemetry,
        cache=args.cache,
        heartbeat=heartbeat,
        compact=not args.no_compact,
    )
    print(f"store     : {store.dir}")
    print_sweep_report(outcome)
    if not outcome.complete:
        # A partial contribution (restricted shards, leases held elsewhere)
        # is success: another invocation finishes the manifest.
        return 0
    aggregate = outcome.aggregate or {}
    ok = (
        aggregate.get("delivered_all") == aggregate.get("trials")
        and not aggregate.get("audit_violations")
    )
    return 0 if ok else 1


def _parse_grid_values(text: str, cast) -> list:
    """Parse a tune grid flag: comma-separated values, ``default`` = None.

    ``--w-factors default,4,2`` means "the practical constructor's
    default plus explicit 4 and 2"; ``-`` is accepted as a synonym for
    ``default``.
    """
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("default", "-", "none"):
            values.append(None)
        else:
            values.append(cast(token))
    return values or [None]


def cmd_tune(args: argparse.Namespace) -> int:
    """The ``repro tune`` auto-tuner (see docs/tuning.md)."""
    import json
    import pathlib

    from .tuning import (
        TuningStudy,
        default_grid,
        load_study,
        print_study_report,
        run_study,
        save_study,
    )

    if args.study:
        study = load_study(args.study)
    else:
        if args.spec is None:
            print(
                "error: --spec is required unless --study names a study file",
                file=sys.stderr,
            )
            return 2
        base = _read_spec(args.spec)
        candidates = default_grid(
            c_stars=_parse_grid_values(args.c_stars, float),
            ms=_parse_grid_values(args.ms, int),
            w_factors=_parse_grid_values(args.w_factors, float),
            qs=_parse_grid_values(args.qs, float),
            oversplits=_parse_grid_values(args.oversplits, float),
        )
        audit_catalog = tuple(
            token.strip()
            for token in (args.audit_catalog or "").split(",")
            if token.strip()
        )
        study = TuningStudy(
            base=base,
            candidates=tuple(candidates),
            budget=args.budget,
            rungs=args.rungs,
            eta=args.eta,
            success_threshold=args.success_threshold,
            audit_trials=args.audit_trials,
            audit_catalog=audit_catalog,
            shard_size=args.shard_size,
            name=args.name or (base.name or ""),
        )
    if args.emit_study:
        save_study(study, args.emit_study)
        print(f"study     : wrote {args.emit_study}")
    print(f"study     : {study.describe()}")
    if args.store is None:
        # Study-only invocation (mint/describe the manifest and stop) —
        # the same contract as ``sweep --manifest`` without ``--store``.
        return 0

    report = run_study(
        study,
        args.store,
        resume=args.resume,
        workers=args.workers,
        progress=args.progress or None,
    )
    print_study_report(report)
    print(f"store     : {pathlib.Path(args.store)}")
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report    : wrote {args.report}")
    return 0 if report.winner is not None else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    import os
    import pathlib
    import subprocess

    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        print(
            "error: benchmarks/ not found (experiments run from a source "
            "checkout)",
            file=sys.stderr,
        )
        return 2
    modules = _experiment_modules(bench_dir)
    available = sorted(modules)
    if args.experiment_id is None:
        print("available experiments:", ", ".join(available))
        print("run one with: python -m repro experiment <id>")
        return 0
    exp = args.experiment_id.lower()
    module = modules.get(exp)
    if module is None:
        print(
            f"error: no benchmark for experiment {exp!r} "
            f"(available: {', '.join(available)})",
            file=sys.stderr,
        )
        return 2
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(module),
        "--benchmark-only",
        "-q",
        "-s",
    ]
    # The child pytest must import ``repro`` even when the package is not
    # installed: prepend the source tree to its PYTHONPATH.
    env = os.environ.copy()
    src_dir = pathlib.Path(__file__).resolve().parents[1]
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(src_dir) if not existing else str(src_dir) + os.pathsep + existing
    )
    if args.workers is not None:
        env[WORKERS_ENV_VAR] = str(args.workers)
    print("running:", " ".join(command))
    return subprocess.call(command, cwd=str(bench_dir), env=env)


def cmd_list(args: argparse.Namespace) -> int:
    from .experiments import CATALOG
    from .scenarios import BACKENDS

    print("catalog specs (repro spec <name> / repro run --spec):")
    for name, spec in CATALOG.items():
        workload = spec.workload or (
            f"~{spec.arrival}" if spec.arrival else "-"
        )
        print(
            f"  {name:24s} {spec.topology} / {workload} / {spec.selector} "
            f"-> {spec.backend}"
        )
    from .scenarios import ARRIVALS

    for title, registry in (
        ("topologies", TOPOLOGIES),
        ("workloads", WORKLOADS),
        ("arrival processes", ARRIVALS),
        ("path selectors", PATH_SELECTORS),
        ("backends", BACKENDS),
    ):
        print(f"\n{title}:")
        for name, doc in registry.describe().items():
            print(f"  {name:24s} {doc}")
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    from .experiments import catalog_spec

    spec = catalog_spec(args.name, seed=args.seed)
    if args.out:
        save_spec(spec, args.out)
        print(f"wrote {args.out} ({spec.describe()})")
    else:
        print(spec.to_json(indent=2))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    print(f"spec  : {spec.describe()}")
    telemetry = args.telemetry or args.trace is not None
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.cache:
            record = run_cached(
                spec,
                cache=args.cache_dir,
                telemetry=telemetry,
                trace_path=args.trace,
            )
        else:
            record = run_trial(
                spec, telemetry=telemetry, trace_path=args.trace
            )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
    if profiler is not None:
        print(
            f"profile: wrote {args.profile} "
            f"(view with: python -m pstats {args.profile})"
        )
    if args.cache and record.cached:
        print("cache : hit")
        if args.trace is not None:
            print(
                "trace : not written (cache hit; clear the record to "
                "re-run with tracing)"
            )
    print(record.result.summary())
    if args.trace is not None and not record.cached:
        print(f"trace : wrote {args.trace}")
    if telemetry and record.result.telemetry is not None:
        counters = record.result.telemetry
        print(
            f"events: {counters['events_total']} "
            f"(deflections {counters['deflections']['safe']} safe / "
            f"{counters['deflections']['unsafe']} unsafe; "
            "view with: python -m repro report "
            + (spec.content_hash() if args.spec == "-" else args.spec)
            + (" --cache-dir ..." if args.cache_dir else "")
            + ")"
        )
    if record.audit is not None:
        print(f"audit: {record.audit.summary()}")
    return 0 if record.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .errors import CapacityError
    from .scenarios import ARRIVALS
    from .telemetry import WindowedMetrics
    from .traffic import make_stream_router, run_stream

    spec = _read_spec(args.spec)
    if not spec.arrival:
        print(
            "error: serve requires a spec with an 'arrival' process "
            "(e.g. \"arrival\": \"bernoulli\")",
            file=sys.stderr,
        )
        return 2
    net = build_network(spec)
    source_fn = ARRIVALS.get(spec.arrival)
    aparams = dict(spec.arrival_params)
    # serve is the open-loop service: no explicit horizon means unbounded
    aparams.setdefault("horizon", None)
    aparams["seed"] = spec.arrival_seed()
    source = source_fn(net, **aparams)
    router = make_stream_router(args.router, seed=spec.seed + 2)
    max_in_flight = (
        args.max_in_flight if args.max_in_flight is not None else net.num_edges
    )

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout

    def emit(record: dict) -> None:
        text = json.dumps(record, sort_keys=True)
        if args.sse:
            out.write(f"data: {text}\n\n")
        else:
            out.write(text + "\n")
        out.flush()

    emit(
        {
            "kind": "serve_header",
            "spec_hash": spec.content_hash(),
            "topology": net.name,
            "arrival": spec.arrival,
            "router": args.router,
            "window": args.window,
            "max_steps": args.steps,
            "max_in_flight": max_in_flight,
        }
    )
    metrics = WindowedMetrics(window=args.window, sink=emit)
    error = None
    try:
        summary = run_stream(
            net,
            source,
            router,
            max_steps=args.steps,
            metrics=metrics,
            path_seed=spec.selector_seed(),
            engine_seed=spec.seed + 3,
            max_in_flight=max_in_flight,
        )
    except CapacityError as exc:
        error = str(exc)
        summary = None
    except BrokenPipeError:
        # The consumer went away (e.g. piped into head); a clean shutdown.
        return 0
    footer = {"kind": "serve_summary"}
    if summary is not None:
        footer.update(
            {
                "steps": summary.steps,
                "arrivals": summary.arrivals,
                "admitted": summary.admitted,
                "delivered": summary.delivered,
                "dropped": summary.dropped,
                "peak_in_flight": summary.peak_in_flight,
                "packet_slots": summary.packet_slots,
                "windows": metrics.windows_emitted,
            }
        )
    else:
        footer["error"] = error
    emit(footer)
    if out is not sys.stdout:
        out.close()
    return 0 if error is None else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .telemetry import render_report, resolve_source

    source = resolve_source(args.target, cache_dir=args.cache_dir)
    print(render_report(source))
    return 0


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hot-potato routing on leveled networks (Busch, SPAA'02)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topo", help="build and validate a topology")
    p_topo.add_argument("spec", help="e.g. butterfly:5, mesh:8x8, random:6x20")
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.set_defaults(func=cmd_topo)

    p_params = sub.add_parser("params", help="show algorithm parameters")
    p_params.add_argument("C", type=int, help="congestion")
    p_params.add_argument("L", type=int, help="network depth")
    p_params.add_argument("N", type=int, help="number of packets")
    p_params.set_defaults(func=cmd_params)

    p_frames = sub.add_parser("frames", help="render the Figure-2 film strip")
    p_frames.add_argument("C", type=int)
    p_frames.add_argument("L", type=int)
    p_frames.add_argument("N", type=int)
    p_frames.add_argument("--m", type=int, default=None)
    p_frames.add_argument("--w", type=int, default=None)
    p_frames.add_argument("--phases", type=int, default=24)
    p_frames.set_defaults(func=cmd_frames)

    p_sweep = sub.add_parser(
        "sweep", help="run a seeded multi-trial sweep of a spec"
    )
    p_sweep.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="the base RunSpec JSON ('-' = stdin); required unless "
        "--manifest names an existing file",
    )
    p_sweep.add_argument("--trials", type=int, default=8)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial processes (1 = serial; results are identical either "
        "way); only runs wider than one executor group (256 trials that "
        "share a lockstep batch) fan out",
    )
    p_sweep.add_argument(
        "--fixed-problem",
        action="store_true",
        help="hold the instance fixed and vary only the routing coins "
        "(Monte Carlo over the algorithm's randomness; trials then share "
        "one warm-cached problem build per worker)",
    )
    p_sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="collect per-trial counters (folded into the aggregate)",
    )
    p_sweep.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="sweep-store root: resumable segments + streaming aggregate "
        "under DIR/<manifest-hash>/; cooperating invocations share it "
        "(omit to just emit/describe the manifest)",
    )
    p_sweep.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="manifest JSON: load it if it exists, else derive one from "
        "--spec and the trial flags and write it there",
    )
    p_sweep.add_argument(
        "--shard",
        default=None,
        metavar="IDS",
        help="restrict this invocation to shard ids, e.g. '0,2,5-7' "
        "(default: walk every shard, lease claims arbitrate overlap)",
    )
    p_sweep.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="trials per shard when deriving a manifest (default 1024)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="break stale shard leases and resume in-progress part files "
        "(per-shard output stays byte-identical to an uninterrupted run)",
    )
    p_sweep.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="append sweep_heartbeat JSONL (trials/sec, ETA, cache hits) "
        "to PATH ('-' = stderr)",
    )
    p_sweep.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="ResultCache root: trials whose results are cached re-emit "
        "from disk instead of re-routing",
    )
    p_sweep.add_argument(
        "--no-compact",
        action="store_true",
        help="keep per-shard segments instead of compacting to "
        "sweep.jsonl.gz on completion",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_tune = sub.add_parser(
        "tune",
        help="auto-tune frontier parameters (successive-halving sweep "
        "study; see docs/tuning.md)",
    )
    p_tune.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="the base frontier RunSpec JSON ('-' = stdin); required "
        "unless --study is given",
    )
    p_tune.add_argument(
        "--study",
        default=None,
        metavar="PATH",
        help="load a saved study JSON (ignores --spec and the grid flags); "
        "reproduces that exact search",
    )
    p_tune.add_argument(
        "--emit-study",
        default=None,
        metavar="PATH",
        help="write the study JSON (the reproducible manifest) here",
    )
    p_tune.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="study root: sweep stores, shared result cache, study.json "
        "and report.json live here (omit to just mint/describe the study)",
    )
    p_tune.add_argument(
        "--budget",
        type=int,
        default=32,
        help="trials per surviving candidate at the final rung",
    )
    p_tune.add_argument(
        "--rungs", type=int, default=3, help="successive-halving rungs"
    )
    p_tune.add_argument(
        "--eta",
        type=int,
        default=2,
        help="halving factor: keep the best 1/eta candidates per rung",
    )
    p_tune.add_argument(
        "--success-threshold",
        type=float,
        default=0.99,
        help="prune candidates whose delivery-success rate falls below "
        "this (default 0.99)",
    )
    p_tune.add_argument(
        "--audit-trials",
        type=int,
        default=2,
        help="audited probe trials per candidate before any sweep spend "
        "(0 disables the invariant gate)",
    )
    p_tune.add_argument(
        "--audit-catalog",
        default=None,
        metavar="NAMES",
        help="comma-separated extra catalog scenarios for the audit gate "
        "(portfolio audit: a candidate must keep the invariants on every "
        "listed instance, not just the base)",
    )
    p_tune.add_argument(
        "--shard-size", type=int, default=256, help="trials per sweep shard"
    )
    p_tune.add_argument(
        "--c-stars",
        default="default,3",
        metavar="LIST",
        help="set_congestion_target grid values ('default' = constructor "
        "default), e.g. 'default,2,3'",
    )
    p_tune.add_argument(
        "--ms", default="default", metavar="LIST", help="m grid values"
    )
    p_tune.add_argument(
        "--w-factors",
        default="default,4,3,2",
        metavar="LIST",
        help="w_factor grid values",
    )
    p_tune.add_argument(
        "--qs", default="default,0.25", metavar="LIST", help="q grid values"
    )
    p_tune.add_argument(
        "--oversplits",
        default="default,1",
        metavar="LIST",
        help="oversplit grid values",
    )
    p_tune.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial processes per sweep; only rungs wider than one "
        "executor group (256 trials) fan out",
    )
    p_tune.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed study: break stale shard leases and replay "
        "valid record prefixes (stores stay byte-identical to an "
        "uninterrupted run)",
    )
    p_tune.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="append tuning_rung/tuning_candidate + sweep_heartbeat JSONL "
        "to PATH ('-' = stderr)",
    )
    p_tune.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the final TuningReport JSON here",
    )
    p_tune.add_argument(
        "--name", default=None, help="label recorded in the study"
    )
    p_tune.set_defaults(func=cmd_tune)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a DESIGN.md experiment table"
    )
    p_exp.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="e.g. t1, t4, a2, e1; omit to list available experiments",
    )
    p_exp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel trial processes for benches that sweep seeds "
        "(exported as $REPRO_BENCH_WORKERS)",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_list = sub.add_parser(
        "list", help="list catalog specs and registered components"
    )
    p_list.set_defaults(func=cmd_list)

    p_spec = sub.add_parser(
        "spec", help="print (or write) a catalog spec as JSON"
    )
    p_spec.add_argument("name", help="a catalog entry (see 'repro list')")
    p_spec.add_argument("--seed", type=int, default=None)
    p_spec.add_argument("--out", default=None, help="write to this file")
    p_spec.set_defaults(func=cmd_spec)

    p_run = sub.add_parser("run", help="run a scenario spec from a JSON file")
    p_run.add_argument(
        "--spec", required=True, help="path to a spec JSON file, or '-' for stdin"
    )
    p_run.add_argument(
        "--cache",
        action="store_true",
        help="memoize the result on disk, keyed by the spec's content hash",
    )
    p_run.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    p_run.add_argument(
        "--telemetry",
        action="store_true",
        help="collect event counters and stage timings for this run",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream every engine event to a JSONL trace file "
        "(.jsonl or .jsonl.gz; implies --telemetry)",
    )
    p_run.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the run under cProfile and dump pstats data to PATH "
        "(view with: python -m pstats PATH)",
    )
    p_run.set_defaults(func=cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="open-loop streaming service: RunSpec JSON in, live metrics out",
    )
    p_serve.add_argument(
        "--spec",
        required=True,
        help="path to a spec JSON with an 'arrival' process, or '-' for stdin",
    )
    p_serve.add_argument(
        "--steps", type=int, default=1000, help="step budget (default 1000)"
    )
    p_serve.add_argument(
        "--window",
        type=int,
        default=50,
        help="metrics window size in steps (default 50)",
    )
    p_serve.add_argument(
        "--router", default="greedy", help="stream router: naive | greedy"
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="admission cap; excess arrivals are dropped "
        "(default: the network's edge count)",
    )
    p_serve.add_argument(
        "--sse",
        action="store_true",
        help="emit Server-Sent-Events frames (data: {...}) instead of JSONL",
    )
    p_serve.add_argument(
        "--out", default=None, help="write the stream to this file, not stdout"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_report = sub.add_parser(
        "report",
        help="render a run summary from a spec / cache record / result "
        "file / JSONL trace (no re-running)",
    )
    p_report.add_argument(
        "target",
        help="spec JSON, 16-hex spec hash, cached record, run-result JSON, "
        "or a .jsonl/.jsonl.gz trace",
    )
    p_report.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory for spec/hash targets "
        "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = make_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
