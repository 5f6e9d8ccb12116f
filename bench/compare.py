#!/usr/bin/env python3
"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent (baseline) and ``B`` the change, each a report written by
``bench/run.py`` without ``--workload``.  For every workload and every
end-to-end metric in ``BENCHMARK.json`` this prints both sides' median and
quartiles over their runs and one verdict:

* ``unresolved``: either side's interquartile spread, as a share of its
  median, is wider than the metric's bound, unless every run of B reads
  better than every run of A;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least nine tenths of the run pairs (ties count for
  neither) and the medians differ by more than A's interquartile spread;
* ``within bound`` otherwise.

The sweep workloads' per-cell rates (``cell.<cell>.trials_per_s``, one
median per untraced run) get the same verdicts with a bound of
:data:`CELL_BOUND`.  It also compares each workload's failed/attempted
ratio.  The exit code is 1 when any metric or cell is ``worse`` or B's
failed ratio is higher than A's.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A kernel change may slow no sweep cell by more than this share of its
#: parent median (ROADMAP's per-cell "no regression" check).
CELL_BOUND = 0.10


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, bound: float, better: str) -> str:
    """Verdict for change runs ``b`` against parent runs ``a``."""
    sign = 1.0 if better == "higher" else -1.0
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    if spread(a) > bound or spread(b) > bound:
        return "better" if all_better else "unresolved"
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    gain = sign * (med_b - med_a)
    if -gain > bound * abs(med_a):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "better"
    return "within bound"


def failed_ratio(runs) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def samples(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def summarize(report) -> str:
    """Median and quartiles of every metric and cell rate in one report,
    per workload, then the traced run's values."""
    lines = []
    for name, data in report["workloads"].items():
        runs = data["runs"]
        lines.append(f"{name}: {len(runs)} runs, failed/attempted {failed_ratio(runs):.3g}")
        metrics = next((r["metrics"] for r in runs if r["metrics"]), {})
        for metric, first in metrics.items():
            q1, med, q3 = quartiles(samples(runs, metric))
            lines.append(f"  {metric:36s} {med:14.6g} [{q1:.6g}, {q3:.6g}] {first['unit']}")
        for cell in sorted({c for r in runs for c in r.get("cells", {})}):
            q1, med, q3 = quartiles(cell_samples(runs, cell))
            name = f"cell.{cell}.trials_per_s"
            lines.append(f"  {name:36s} {med:14.6g} [{q1:.6g}, {q3:.6g}] 1/s")
        slow = [r["host_slowness"] for r in runs if r.get("host_slowness")]
        if slow:
            q1, med, q3 = quartiles(slow)
            lines.append(f"  {'host_slowness':36s} {med:14.6g} [{q1:.6g}, {q3:.6g}] ratio")
        if data["traced"]:
            lines.append("  traced run:")
            for metric, v in data["traced"]["metrics"].items():
                lines.append(f"  {metric:36s} {v['value']:14.6g} {v['unit']}")
    return "\n".join(lines)


def cell_samples(runs, cell):
    return [r["cells"][cell] for r in runs if cell in r.get("cells", {})]


def compare(a, b, spec) -> tuple:
    """Table rows and whether B regressed against A."""
    rows = []
    regressed = False

    def judge(name, va, vb, unit, bound, better):
        nonlocal regressed
        if not va or not vb:
            rows.append(f"  {name:36s} missing")
            return
        word = verdict(va, vb, bound, better)
        regressed |= word == "worse"
        qa, qb = quartiles(va), quartiles(vb)
        rows.append(
            f"  {name:36s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            f"  B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit}"
            f"  bound {bound:.0%}: {word}"
        )

    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a = a["workloads"][name]["runs"]
        runs_b = b["workloads"][name]["runs"]
        fa, fb = failed_ratio(runs_a), failed_ratio(runs_b)
        if fb > fa:
            regressed = True
        rows.append(f"{name}: failed/attempted {fa:.3g} -> {fb:.3g}")
        for m in spec["end_to_end"]:
            va, vb = samples(runs_a, m["name"]), samples(runs_b, m["name"])
            judge(m["name"], va, vb, m["unit"], m["bound"], m["better"])
        for cell in sorted({c for r in runs_a for c in r.get("cells", {})}):
            va, vb = cell_samples(runs_a, cell), cell_samples(runs_b, cell)
            judge(f"cell.{cell}.trials_per_s", va, vb, "1/s", CELL_BOUND, "higher")
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(a, b, spec)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
