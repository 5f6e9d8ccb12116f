"""Unit tests for Section 2.1 parameters (theory-exact and practical)."""

import math

import pytest

from repro.core import (
    PRESETS,
    AlgorithmParams,
    compute_theory_values,
    ln_ln_factor,
    polylog_exponent_check,
    preset_kwargs,
    theorem_success_probability,
    theorem_time_bound,
)
from repro.errors import ParameterError


class TestTheoryValues:
    def test_reconstructed_formulas(self):
        C, L, N = 4, 8, 32
        tv = compute_theory_values(C, L, N)
        lnln = math.log(L * N)
        assert tv.a == pytest.approx(2 * math.e**3 / lnln)
        assert tv.m == pytest.approx(lnln**2 + 5)
        assert tv.q == pytest.approx(1 / (tv.m**2 * lnln))
        assert tv.p0 == pytest.approx(1 - 1 / (2 * L * N))
        amc = tv.a * tv.m * C
        assert tv.amc == pytest.approx(amc)
        assert tv.p1 == pytest.approx(1 / ((amc + L) * 2 * amc * L * N**2))
        assert tv.w == pytest.approx(
            4 * math.e * tv.m**2 * lnln * math.log(1 / tv.p1) + 3 * tv.m + 1
        )
        assert tv.total_phases == pytest.approx(amc + L)
        assert tv.total_steps == pytest.approx((amc + L) * tv.m * tv.w)

    def test_lemma_4_3_inequality(self):
        # (1 - mq)^{m ln(LN)} >= 1/(2e): the excited packet's success bound.
        for C, L, N in [(2, 4, 8), (8, 16, 128), (64, 32, 1024)]:
            tv = compute_theory_values(C, L, N)
            lnln = math.log(L * N)
            prob = (1 - tv.m * tv.q) ** (tv.m * lnln)
            assert prob >= 1 / (2 * math.e)

    def test_theorem_426_success_probability(self):
        # p(amC + L) >= 1 - 1/(LN) — the theorem's probability chain.
        for C, L, N in [(2, 4, 8), (4, 8, 64), (16, 16, 256)]:
            assert theorem_success_probability(C, L, N) >= 1 - 1 / (L * N)

    def test_time_bound_is_polylog_of_c_plus_l(self):
        # (amC + L)·m·w / (C + L) must be bounded by ln^9(LN) up to a
        # constant (the reconstructed constant is ~8e^4·ln(1/p1)/ln ≈ 10^6):
        # check the shape empirically across a size sweep.
        for C, L, N in [(2, 8, 16), (8, 32, 256), (32, 128, 4096)]:
            assert theorem_time_bound(C, L, N) > 0
            lnln = math.log(L * N)
            factor = polylog_exponent_check(C, L, N)
            assert factor <= 1e6 * lnln**9
            # ... and is genuinely large (the paper admits impracticality).
            assert factor > lnln**4

    def test_tiny_instances_clamped(self):
        assert ln_ln_factor(1, 1) == 1.0
        tv = compute_theory_values(1, 1, 1)
        assert tv.m >= 5

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            compute_theory_values(0, 4, 4)
        with pytest.raises(ParameterError):
            ln_ln_factor(0, 4)


class TestAlgorithmParams:
    def test_theory_exact_integers(self):
        params = AlgorithmParams.theory_exact(2, 4, 8)
        tv = params.theory
        assert params.m == math.ceil(tv.m)
        assert params.w == math.ceil(tv.w)
        assert params.num_sets == math.ceil(tv.a * 2)
        assert params.mode == "theory"

    def test_practical_defaults(self):
        params = AlgorithmParams.practical(6, 20, 50)
        assert params.mode == "practical"
        assert params.num_sets >= math.ceil(6 / params.set_congestion_bound)
        assert params.m >= 6
        assert params.w >= 4 * params.m
        assert 0 < params.q <= 1

    def test_schedule_arithmetic(self):
        params = AlgorithmParams.practical(4, 10, 16, m=6, w=24)
        assert params.steps_per_phase == 144
        assert params.total_phases == params.num_sets * 6 + 10
        assert params.total_steps == params.total_phases * 144

    def test_oversplit_increases_sets(self):
        lean = AlgorithmParams.practical(9, 10, 16, oversplit=1.0)
        fat = AlgorithmParams.practical(9, 10, 16, oversplit=3.0)
        assert fat.num_sets >= 3 * lean.num_sets - 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            AlgorithmParams.practical(0, 4, 4)
        with pytest.raises(ParameterError):
            AlgorithmParams.practical(4, 4, 4, m=2)
        with pytest.raises(ParameterError):
            AlgorithmParams.practical(4, 4, 4, q=1.5)
        with pytest.raises(ParameterError):
            AlgorithmParams.practical(4, 4, 4, oversplit=0.5)
        with pytest.raises(ParameterError):
            AlgorithmParams.practical(4, 4, 4, set_congestion_target=0.2)

    def test_describe_keys(self):
        desc = AlgorithmParams.practical(4, 8, 16).describe()
        for key in ("num_sets", "m", "w", "q", "total_steps"):
            assert key in desc

    def test_tiny_instance_practical(self):
        # L = N = 1 clamps ln(LN) to 1; every derived value stays legal.
        params = AlgorithmParams.practical(1, 1, 1)
        assert params.num_sets >= 1
        assert params.m >= 4
        assert params.w >= 1
        assert 0.0 <= params.q <= 1.0
        assert params.set_congestion_bound >= 1.0

    def test_q_extremes_are_valid_parameterizations(self):
        for q in (0.0, 1.0):
            params = AlgorithmParams.practical(4, 8, 16, q=q)
            assert params.q == q


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"paper-faithful", "practical"}
        # paper-faithful IS the practical constructor's defaults.
        assert PRESETS["paper-faithful"] == {}

    def test_preset_kwargs_copies(self):
        kwargs = preset_kwargs("practical")
        kwargs["m"] = 999
        assert PRESETS["practical"]["m"] != 999

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="paper-faithful"):
            preset_kwargs("turbo")
        with pytest.raises(ParameterError):
            AlgorithmParams.from_preset("turbo", 4, 8, 16)

    def test_paper_faithful_matches_defaults(self):
        via_preset = AlgorithmParams.from_preset("paper-faithful", 6, 20, 50)
        direct = AlgorithmParams.practical(6, 20, 50)
        assert via_preset.describe() == {
            **direct.describe(),
            "mode": "paper-faithful",
        }

    def test_practical_preset_values(self):
        params = AlgorithmParams.from_preset("practical", 6, 20, 50)
        assert params.mode == "practical"
        assert params.m == PRESETS["practical"]["m"]
        assert params.q == PRESETS["practical"]["q"]
        assert params.set_congestion_bound == (
            PRESETS["practical"]["set_congestion_target"]
        )

    def test_overrides_win(self):
        params = AlgorithmParams.from_preset(
            "practical", 6, 20, 50, m=12, q=0.125
        )
        assert params.m == 12
        assert params.q == 0.125

    def test_presets_survive_tiny_instances(self):
        for name in PRESETS:
            params = AlgorithmParams.from_preset(name, 1, 1, 1)
            assert params.m >= 4
            assert params.total_steps >= 1


class TestPresetEndToEnd:
    """The shipped presets against real instances (regression gates)."""

    def test_q_extremes_route_end_to_end(self):
        from repro.experiments import butterfly_random_spec, run_frontier_trial
        from repro.scenarios import build_problem

        problem = build_problem(butterfly_random_spec(3, seed=5))
        for q in (0.0, 1.0):
            record = run_frontier_trial(problem, 0, audit=True, q=q)
            assert record.result.all_delivered, f"q={q} left packets"
            assert record.audit is not None and record.audit.ok

    def test_practical_preset_audits_clean_on_every_family(self):
        # The regression gate behind the shipped preset: "practical" must
        # keep every frontier-frame invariant (and deliver everything) on
        # every catalog topology family, not just the one it was tuned on.
        from repro.experiments import (
            PRESET_FAMILIES,
            catalog_spec,
            run_frontier_trial,
        )
        from repro.scenarios import build_problem

        families = tuple(PRESET_FAMILIES) + ("mesh_corner_shift",)
        for name in families:
            problem = build_problem(catalog_spec(name).with_pinned_scenario())
            record = run_frontier_trial(
                problem, 0, audit=True, preset="practical"
            )
            assert record.result.all_delivered, f"{name}: packets stuck"
            assert record.audit is not None and record.audit.ok, (
                f"{name}: {record.audit.summary()}"
            )

    def test_practical_preset_step_margin(self):
        # The tuned preset's reason to exist: on the pinned butterfly_random
        # instance it takes at least 100x fewer steps, on the mean over 10
        # seeds, than the paper-faithful Section 2.1 schedule.
        from repro.experiments import catalog_spec, run_frontier_trial
        from repro.scenarios import build_problem

        problem = build_problem(
            catalog_spec("butterfly_random").with_pinned_scenario()
        )
        means = {}
        for preset in sorted(PRESETS):
            records = [run_frontier_trial(problem, 0, audit=True, preset=preset)]
            records += [
                run_frontier_trial(problem, seed, preset=preset)
                for seed in range(1, 10)
            ]
            assert all(r.ok for r in records), preset
            means[preset] = sum(r.result.makespan for r in records) / 10
        assert means["paper-faithful"] / means["practical"] >= 100.0
