"""Preset families — paper-faithful vs the tuned ``"practical"`` preset.

``repro.core.PRESETS`` ships two parameterization families: the
structural ``"paper-faithful"`` defaults and ``"practical"``, the winner
of the successive-halving tuning study checked in at
``benchmarks/studies/practical_preset_study.json`` (regenerate it with
``python -m repro tune``; docs/tuning.md documents the search).  This
bench regenerates the headline comparison on every catalog family that
carries preset variants: makespan, the ``T/(C+D)`` ratio, and the margin
— while asserting the practical preset still clears the same two gates
the study enforced (every packet delivered, every frontier-frame
invariant kept).
"""

from repro.core import PRESETS
from repro.experiments import PRESET_FAMILIES, catalog_spec
from repro.analysis import format_table

from _common import emit, once, reset, run_pinned

SEEDS = range(3)


def run_family(base_name: str):
    """Both presets on one pinned catalog family, seed-averaged; seed 0
    runs audited."""
    results = {}
    for preset in sorted(PRESETS):
        spec = catalog_spec(base_name).with_params(preset=preset)
        problem, (audited,) = run_pinned(spec.with_params(audit=True), [0])
        _, rest = run_pinned(spec, [seed for seed in SEEDS if seed != 0])
        records = [audited] + rest
        c_plus_d = max(1, problem.congestion + problem.dilation)
        mean = sum(r.result.makespan for r in records) / len(records)
        results[preset] = {
            "mean": mean,
            "ratio": mean / c_plus_d,
            "delivered": all(r.result.all_delivered for r in records),
            "audit_ok": audited.audit is not None and audited.audit.ok,
        }
    return problem, results


def test_presets_comparison(benchmark):
    reset("presets")
    for base_name in PRESET_FAMILIES:
        problem, results = run_family(base_name)
        margin = results["paper-faithful"]["mean"] / max(
            1.0, results["practical"]["mean"]
        )
        rows = [
            (
                preset,
                f"{stats['mean']:.1f}",
                f"{stats['ratio']:.1f}x",
                "ok" if stats["delivered"] else "STUCK",
                "ok" if stats["audit_ok"] else "VIOLATED",
            )
            for preset, stats in sorted(results.items())
        ]
        emit(
            "presets",
            format_table(
                ["preset", "T (mean)", "T/(C+D)", "delivered", "audit"],
                rows,
                title=f"presets: {base_name} — {problem.describe()}",
                note=(
                    f"practical takes {margin:.0f}x fewer steps; both "
                    "presets must deliver everything and keep every "
                    "invariant (the tuning study's gates)"
                ),
            ),
        )
        for preset, stats in results.items():
            assert stats["delivered"], f"{base_name}/{preset} left packets"
            assert stats["audit_ok"], f"{base_name}/{preset} broke invariants"
        assert margin > 1.0, (
            f"practical preset is not faster on {base_name} "
            f"({margin:.2f}x)"
        )

    once(benchmark, run_family, PRESET_FAMILIES[0])
