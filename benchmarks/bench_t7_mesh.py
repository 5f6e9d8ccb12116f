"""T7 — the Section 5 application: n x n mesh with C, D = O(n) paths.

"An immediate application of our algorithm is on routing in multiprocessor
networks which are represented as leveled networks.  For example, in [16]
the authors describe how to obtain optimal paths for the n x n mesh with
congestion and dilation n, and our algorithm can be used to route these
packets with time close to the optimal up to polylogarithmic factors."

We instantiate the application with dimension-order monotone paths
(C, D <= 2n; see DESIGN.md's substitution table), sweep the mesh size, and
check the routing time grows Õ(n).
"""

from repro.analysis import fit_affine, format_table
from repro.experiments import mesh_corner_shift_spec, mesh_monotone_spec

from _common import emit, once, reset, run_pinned

#: fixed frame parameterization for every mesh run
FRAME_KW = dict(m=8, w_factor=8.0, set_congestion_target=3.0)


def run_mesh(spec, seed):
    """One frontier trial on ``spec``'s instance: ``(problem, record)``."""
    problem, (record,) = run_pinned(spec.with_params(**FRAME_KW), [seed])
    return problem, record


def test_t7_mesh_size_sweep(benchmark):
    reset("t7_mesh")
    rows = []
    xs, ts = [], []
    for n in (4, 6, 8, 10, 12, 14):
        # Random monotone workloads have endpoint-driven congestion, so T
        # tracks C + L (the theorem's yardstick) rather than n alone;
        # average over fresh workloads to tame the discrete jumps the
        # ceil(C / c*) frame count introduces at small C.
        makespans, cs = [], []
        last = None
        for wl_seed in (61, 65, 69):
            problem, record = run_mesh(
                mesh_monotone_spec(n, num_packets=n * n // 3, seed=wl_seed),
                seed=wl_seed + 1,
            )
            assert record.result.all_delivered, record.result.summary()
            makespans.append(record.result.makespan)
            cs.append(problem.congestion)
            last = problem
        mean_t = sum(makespans) / len(makespans)
        mean_c = sum(cs) / len(cs)
        rows.append(
            (
                f"{n}x{n}",
                last.num_packets,
                f"{mean_c:.1f}",
                last.dilation,
                last.net.depth,
                int(mean_t),
                f"{mean_t / n:.0f}",
            )
        )
        xs.append(mean_c + last.net.depth)
        ts.append(mean_t)
    fit = fit_affine(xs, ts)
    emit(
        "t7_mesh",
        format_table(
            ["mesh", "N", "C", "D", "L", "T (mean)", "T/n"],
            rows,
            title="T7 (Section 5): monotone mesh routing with "
            "dimension-order O(n) paths",
            note=f"affine fit T = {fit.intercept:.0f} + {fit.slope:.0f}·(C+L), "
            f"R² = {fit.r_squared:.4f} — Õ(C+L) = Õ(n) as the application "
            "promises (C, D <= 2n and L = 2n-2)",
        ),
    )
    assert fit.r_squared > 0.85

    once(benchmark, run_mesh, mesh_monotone_spec(10, num_packets=20, seed=61), 62)


def test_t7_corner_shift_stress(benchmark):
    rows = []
    ns, ts = [], []
    for n in (6, 8, 10, 12):
        problem, record = run_mesh(mesh_corner_shift_spec(n), seed=63)
        assert record.result.all_delivered
        rows.append(
            (
                f"{n}x{n} shift",
                problem.num_packets,
                problem.congestion,
                problem.dilation,
                record.result.makespan,
                record.result.total_deflections,
            )
        )
        ns.append(n)
        ts.append(record.result.makespan)
    fit = fit_affine(ns, ts)
    emit(
        "t7_mesh",
        format_table(
            ["instance", "N", "C", "D", "T", "deflections"],
            rows,
            title="T7b: deterministic corner-shift stress (block = n/2, "
            "C = n/2, D = n)",
            note=f"affine fit T = {fit.intercept:.0f} + {fit.slope:.0f}·n, "
            f"R² = {fit.r_squared:.4f}",
        ),
    )
    assert fit.r_squared > 0.9

    once(benchmark, run_mesh, mesh_corner_shift_spec(10), 63)
