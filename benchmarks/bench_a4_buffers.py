"""A4 — ablation: the buffer spectrum from bufferless to unbounded.

The paper's framing places hot-potato routing at the zero-buffer extreme
and cites Leighton et al.'s constant-buffer `O(C + L + log N)` result [16]
as the buffered reference.  This bench sweeps per-edge buffer capacity
``k`` on heavy instances:

* ``k = 1..∞`` — bounded-buffer store-and-forward with backpressure
  (:class:`repro.baselines.BoundedBufferScheduler`; unbounded =
  :class:`~repro.baselines.StoreForwardScheduler`);
* ``k = 0`` — the bufferless routers (naive deflection and the paper's
  frontier-frame algorithm).

Expected shape: completion time is already near-optimal at small constant
``k`` (the [16] message), blocking pressure falls rapidly with ``k``, and
the bufferless column pays either deflection churn (naive, no guarantee)
or the polylog schedule (the paper's algorithm, guaranteed).
"""

from functools import partial

from repro.analysis import format_table
from repro.experiments import funnel_spec, mesh_corner_shift_spec

from _common import emit, once, reset, run_pinned

BUFFER_SIZES = (1, 2, 4, 8)


def buffer_sweep(instance, seed=0):
    specs = (
        [instance(backend="naive")]
        + [instance(backend="bounded_buffer", buffer_size=k) for k in BUFFER_SIZES]
        + [
            instance(backend="storeforward"),
            instance(backend="frontier", m=8, w_factor=8.0),
        ]
    )
    problem, records = run_pinned(specs, [seed])
    naive, *bounded, unbounded, frontier = [record.result for record in records]
    rows = []
    rows.append(
        (
            "k=0 (naive deflection)",
            naive.makespan,
            f"{naive.makespan / max(1, problem.lower_bound):.1f}x",
            naive.total_deflections,
            "-",
        )
    )
    for k, result in zip(BUFFER_SIZES, bounded):
        assert result.all_delivered, result.summary()
        rows.append(
            (
                f"k={k}",
                result.makespan,
                f"{result.makespan / max(1, problem.lower_bound):.1f}x",
                int(result.extra["blocked_steps"]),
                int(result.extra["max_buffer_occupancy"]),
            )
        )
    rows.append(
        (
            "k=inf (unbounded)",
            unbounded.makespan,
            f"{unbounded.makespan / max(1, problem.lower_bound):.1f}x",
            0,
            int(unbounded.extra["max_queue_depth"]),
        )
    )
    rows.append(
        (
            "k=0 (frontier-frame, guaranteed)",
            frontier.makespan,
            f"{frontier.makespan / max(1, problem.lower_bound):.1f}x",
            frontier.total_deflections,
            "-",
        )
    )
    return problem, rows


def test_a4_buffer_spectrum(benchmark):
    reset("a4_buffers")
    for name, instance in [
        ("funnel C=N on bf(5)", partial(funnel_spec, 5, 12, seed=95)),
        ("mesh 12x12 corner shift", partial(mesh_corner_shift_spec, 12)),
    ]:
        problem, rows = buffer_sweep(instance)
        emit(
            "a4_buffers",
            format_table(
                ["buffers", "T", "T/max(C,D)", "blocked/defl", "peak occupancy"],
                rows,
                title=f"A4: buffer spectrum on {name} — {problem.describe()}",
                note="constant buffers already deliver near the C+D bound "
                "([16]'s message); blocking pressure falls sharply with k; "
                "bufferless routing trades buffers for deflections (naive) "
                "or for the guaranteed polylog schedule (the paper)",
            ),
        )
        # Shape assertions: k=1 already delivers; time is monotone-ish
        # toward the unbounded value.
        times = [row[1] for row in rows[1:6]]
        assert times[-1] <= times[0] + 2

    once(benchmark, buffer_sweep, partial(mesh_corner_shift_spec, 12))
