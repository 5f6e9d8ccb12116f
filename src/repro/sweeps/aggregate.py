"""One-pass streaming aggregation for million-trial sweeps.

A 10^6-trial parameter study must never materialize its records: the
point of the sweep is the *distribution* — success rate, delivery-time
percentiles, deflection counts, telemetry counter totals — not the raw
rows.  :class:`StreamingAggregate` folds one record at a time (from the
dispatcher as trials finish, or from a store's segment iterator) into
fixed-size state:

* scalar tallies (trials, delivered-all count, per-packet delivery
  totals) in O(1);
* :class:`IntSketch` count/mean/min/max/percentile sketches over integer
  metrics (makespan, per-packet delivery time, per-packet deflections,
  slowdown scaled to 1e-3).  The sketch is an exact integer histogram
  that *coarsens itself* — while the number of distinct buckets exceeds a
  bound it doubles its bucket width and rebins — so memory stays bounded
  no matter the value range while percentiles stay within one bucket
  width.  Its state is a function of the values folded alone, never of
  their order: the width is the smallest power of two at which they fit
  the bound.  For typical sweeps (makespans in the thousands) the
  histogram never coarsens and percentiles are exact.
* telemetry counter snapshots merged pairwise through
  :func:`repro.telemetry.aggregate_counters` (additive fields sum, peaks
  max — the same semantics the CLI sweep summary always used);
* invariant-audit tallies (audited trials, violated audits), present
  only when records carry an ``audit``.

Every fold commutes, so records may be folded in any order.  ``to_dict``
emits a JSON-stable summary; ``aggregate_store`` streams a finished (or
compacted) store through one pass, or completes an aggregate
:func:`~repro.sweeps.run_sweep` folded as it wrote with exactly the
records it did not write.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence

#: Maximum distinct histogram buckets before an IntSketch coarsens.
SKETCH_MAX_BUCKETS = 4096

#: Percentiles reported by every sketch summary.
SKETCH_PERCENTILES = (0.50, 0.90, 0.95, 0.99)

AGGREGATE_KIND = "sweep_aggregate"
AGGREGATE_FORMAT = 1


class IntSketch:
    """Bounded-memory count/mean/min/max/percentile sketch over ints."""

    def __init__(self, max_buckets: int = SKETCH_MAX_BUCKETS) -> None:
        self.max_buckets = max(16, int(max_buckets))
        self.width = 1
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._buckets: Dict[int, int] = {}

    def add(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value // self.width
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._fit()

    def add_many(self, values: Sequence[int]) -> None:
        """Fold every value of ``values`` (ints) in one pass.

        The values are counted at the current width, their counts added,
        and the sketch then coarsened until it fits: the state equals
        that of calling :meth:`add` on each value, in any order.
        """
        if not values:
            return
        width = self.width
        counts = Counter(values if width == 1 else [v // width for v in values])
        buckets = self._buckets
        for bucket, count in counts.items():
            buckets[bucket] = buckets.get(bucket, 0) + count
        self.count += len(values)
        self.total += sum(values)
        low, high = min(values), max(values)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        self._fit()

    def _fit(self) -> None:
        """Double the bucket width until at most ``max_buckets`` remain.

        Rebinning at twice the width gives the exact counts at that width
        (``(v // w) // 2 == v // (2 * w)``), and a set of values never needs
        fewer buckets after more values join it, so the width is always
        the smallest power of two at which every value folded so far fits:
        a function of those values alone, not of their order.
        """
        while len(self._buckets) > self.max_buckets:
            self.width *= 2
            rebinned: Dict[int, int] = {}
            for bucket, count in self._buckets.items():
                key = bucket // 2
                rebinned[key] = rebinned.get(key, 0) + count
            self._buckets = rebinned

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[int]:
        """Nearest-rank percentile, resolved to a bucket's upper value."""
        if not self.count:
            return None
        rank = max(1, int(round(q * self.count)))
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= rank:
                # Upper edge of the bucket, clamped into observed range.
                upper = bucket * self.width + (self.width - 1)
                return max(self.min, min(self.max, upper))
        return self.max  # pragma: no cover - rank <= count always hits

    def to_dict(self) -> dict:
        record = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "bucket_width": self.width,
        }
        for q in SKETCH_PERCENTILES:
            record[f"p{int(q * 100)}"] = self.percentile(q)
        return record


class StreamingAggregate:
    """Fold sweep records one at a time; bounded memory, one pass."""

    def __init__(self) -> None:
        self.trials = 0
        self.delivered_all = 0
        self.packets = 0
        self.packets_delivered = 0
        self.unsafe_deflections = 0
        self.cache_hits = 0
        #: trials whose record carries an invariant audit, and how many
        #: of those audits recorded a violation
        self.audited = 0
        self.audit_violations = 0
        self.makespan = IntSketch()
        self.delivery_time = IntSketch()
        self.deflections = IntSketch()
        #: slowdown = makespan / max(C, D), folded at 1e-3 resolution
        self.slowdown_milli = IntSketch()
        self._telemetry: Optional[dict] = None

    # ---------------------------------------------------------------- folds

    def add_result(self, result) -> None:
        """Fold one :class:`~repro.sim.RunResult` (live dispatch path)."""
        self.trials += 1
        self.packets += result.num_packets
        self.packets_delivered += result.delivered
        if result.delivered == result.num_packets:
            self.delivered_all += 1
        self.unsafe_deflections += result.unsafe_deflections
        self.makespan.add(result.makespan)
        lower = max(1, max(result.congestion, result.dilation))
        self.slowdown_milli.add(round(result.makespan * 1000 / lower))
        self.delivery_time.add_many(
            [time for time in result.delivery_times if time is not None]
        )
        self.deflections.add_many(result.deflections_per_packet)
        telemetry = result.telemetry
        if telemetry:
            self._fold_telemetry(telemetry)

    def add_audit(self, ok: bool) -> None:
        """Tally one trial's invariant-audit verdict."""
        self.audited += 1
        if not ok:
            self.audit_violations += 1

    def add_record(self, record: dict) -> None:
        """Fold one decoded store record (segment replay path)."""
        from ..io import result_from_dict

        self.add_result(result_from_dict(record["result"]))
        audit = record.get("audit")
        if audit is not None:
            self.add_audit(audit["ok"])

    def _fold_telemetry(self, snapshot: dict) -> None:
        from ..telemetry import aggregate_counters

        # aggregate_counters is associative over snapshots (an aggregate
        # is itself a valid snapshot whose ``runs`` carries its weight),
        # so pairwise folding matches a single batched call exactly.
        self._telemetry = aggregate_counters([self._telemetry, snapshot])

    # --------------------------------------------------------------- output

    def to_dict(self) -> dict:
        record = {
            "kind": AGGREGATE_KIND,
            "format": AGGREGATE_FORMAT,
            "trials": self.trials,
            "delivered_all": self.delivered_all,
            "success_rate": (
                self.delivered_all / self.trials if self.trials else None
            ),
            "packets": self.packets,
            "packets_delivered": self.packets_delivered,
            "unsafe_deflections": self.unsafe_deflections,
            "cache_hits": self.cache_hits,
            "makespan": self.makespan.to_dict(),
            "delivery_time": self.delivery_time.to_dict(),
            "deflections": self.deflections.to_dict(),
            "slowdown_milli": self.slowdown_milli.to_dict(),
        }
        if self.audited:
            # Only audited sweeps carry the keys: unaudited aggregates stay
            # byte-identical to those written before audits were stored.
            record["audited"] = self.audited
            record["audit_violations"] = self.audit_violations
        if self._telemetry is not None:
            record["telemetry"] = self._telemetry
        return record

    def summary(self) -> str:
        """One-paragraph human rendering (the CLI's sweep footer)."""
        return render_aggregate(self.to_dict())


def render_aggregate(record: dict) -> str:
    """Human rendering of an emitted aggregate dict (`aggregate.json`)."""
    trials = record.get("trials", 0)
    if not trials:
        return "aggregate : no trials"
    lines: List[str] = []
    cache_hits = record.get("cache_hits", 0)
    lines.append(
        f"aggregate : {trials} trials, "
        f"{record['delivered_all']}/{trials} fully delivered"
        + (f", {cache_hits} cache hits" if cache_hits else "")
    )
    mk = record["makespan"]
    lines.append(
        f"makespan  : mean {mk['mean']:.1f}, min {mk['min']}, "
        f"p50 {mk['p50']}, p95 {mk['p95']}, p99 {mk['p99']}, max {mk['max']}"
    )
    dt = record["delivery_time"]
    if dt["count"]:
        lines.append(
            f"delivery  : {dt['count']} packets, mean {dt['mean']:.1f}, "
            f"p50 {dt['p50']}, p95 {dt['p95']}, max {dt['max']}"
        )
    df = record["deflections"]
    if df["count"]:
        lines.append(
            f"deflection: mean {df['mean']:.2f}/packet, p95 {df['p95']}, "
            f"max {df['max']} "
            f"({record['unsafe_deflections']} unsafe total)"
        )
    sd = record["slowdown_milli"]
    if sd["count"] and sd["mean"] is not None:
        lines.append(
            f"slowdown  : T/max(C,D) mean {sd['mean'] / 1000:.2f}, "
            f"p95 {(sd['p95'] or 0) / 1000:.2f}"
        )
    if record.get("audited"):
        lines.append(
            f"invariants: {record['audited']} audited, "
            f"{record['audit_violations']} violated"
        )
    telemetry = record.get("telemetry")
    if telemetry:
        lines.append(
            f"telemetry : {telemetry['events_total']} events over "
            f"{telemetry['runs']} trials; deflections "
            f"{telemetry['deflections']['safe']} safe / "
            f"{telemetry['deflections']['unsafe']} unsafe"
        )
    return "\n".join(lines)


def aggregate_records(records: Iterable[dict]) -> StreamingAggregate:
    """One pass over decoded store records."""
    aggregate = StreamingAggregate()
    for record in records:
        aggregate.add_record(record)
    return aggregate


def aggregate_store(
    store,
    live: Optional[StreamingAggregate] = None,
    folded: Optional[Dict[int, int]] = None,
) -> StreamingAggregate:
    """One streaming pass over a finished (or compacted) store.

    ``live`` is an aggregate that already folded some records as they
    were written; ``folded`` maps each shard it covers to the number of
    leading records it does not hold (a resumed prefix).  Only the records
    ``live`` lacks are read back and folded into it.  Every fold commutes,
    so the result equals the plain one-pass fold whatever order the
    shards were folded in.
    """
    if live is None or not folded or store.is_compacted():
        return aggregate_records(store.iter_records())
    for shard in store.manifest.shard_ids():
        lacking = folded.get(shard)
        if lacking == 0:
            continue
        records = store.iter_shard_records(shard)
        if lacking is not None:
            records = islice(records, lacking)
        for record in records:
            live.add_record(record)
    return live
