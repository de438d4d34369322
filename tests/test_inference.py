"""Distribution kernels and the hypothesis-test layer.

Grids are checked against mpmath (normal) and scipy.stats (chi-square);
scalar anchors were computed with mpmath at 40 digits and are frozen below.
"""

import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choicestats import (
    ConfidenceInterval,
    NestingError,
    asymptotic_ci,
    asymptotic_record,
    DesignArrays,
    build_design,
    chisq_cdf,
    chisq_sf,
    estimate_design,
    lm_test_at,
    lr_test,
    normal_cdf,
    normal_quantile,
    t_test,
    wald_test,
    z_for_level,
)
from choicestats.inference import resolve_sidedness

from testtools import assert_close_rel, lm_oracle, take_observations, three_mode_data, three_mode_spec

mpmath.mp.dps = 40

# Φ⁻¹ at a spread of levels, mpmath erfinv, 40 digits, rounded to float64.
QUANTILE_ORACLE = {
    1e-12: -7.034483825301132,
    1e-06: -4.753424308822899,
    0.01: -2.326347874040841,
    0.025: -1.9599639845400543,
    0.05: -1.6448536269514726,
    0.2: -0.8416212335729142,
    0.5: 0.0,
    0.8: 0.8416212335729142,
    0.975: 1.9599639845400543,
    0.999999: 4.753424308822899,
    # Far upper tail, where root-finding on 1 - tail loses its precision.
    1 - 1e-12: 7.0344869100478352,
    1 - 2**-53: 8.2095361516013869,
}

PHI_MINUS_2 = 0.02275013194817921
PHI_3 = 0.9986501019683699


def _phi_oracle(x):
    return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


class TestNormalCdf:
    def test_matches_mpmath_including_far_tails(self):
        # erfc keeps the tail relatively accurate; demand that, not just
        # absolute agreement.
        for x in (-37.0, -30.0, -13.61, -8.0, -3.2, -1.0, -0.1, 0.0, 0.5, 2.7, 8.0, 30.0):
            got = normal_cdf(x)
            want = _phi_oracle(x)
            assert got == pytest.approx(want, rel=5e-13), f"x={x}"

    def test_tails_sum_to_one_exactly(self):
        for x in (0.0, 1e-8, 0.3, 1.0, 1.96, 5.5, 12.0, 37.0, 200.0):
            assert normal_cdf(x) + normal_cdf(-x) == 1.0

    def test_monotone(self):
        grid = np.linspace(-10.0, 10.0, 201)
        values = [normal_cdf(x) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))


class TestNormalQuantile:
    def test_matches_mpmath_oracle(self):
        for p, want in QUANTILE_ORACLE.items():
            got = normal_quantile(p)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12), f"p={p}"

    def test_round_trip_through_cdf(self):
        for p in (1e-10, 1e-4, 0.025, 0.31, 0.5, 0.77, 0.95, 1 - 1e-6):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-9)

    def test_two_sided_critical_values(self):
        assert z_for_level(0.95) == pytest.approx(1.9599639845400543, abs=1e-12)
        assert z_for_level(0.90) == pytest.approx(1.6448536269514726, abs=1e-12)
        # z_for_level(level) is the (1 - (1-level)/2) quantile, nothing else.
        assert z_for_level(0.95) == normal_quantile(0.975)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_levels_outside_open_interval_rejected(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)
        with pytest.raises(ValueError):
            z_for_level(p)


class TestChiSquare:
    def test_matches_scipy_grid(self):
        for x in (1e-12, 0.01, 0.5, 1.0, 2.0, 3.8415, 8.0, 20.0, 80.0, 700.0):
            assert chisq_cdf(x, 1) == pytest.approx(
                scipy.stats.chi2.cdf(x, 1), rel=1e-12, abs=1e-300
            ), f"cdf x={x}"
            assert chisq_sf(x, 1) == pytest.approx(
                scipy.stats.chi2.sf(x, 1), rel=1e-12, abs=1e-300
            ), f"sf x={x}"

    def test_far_tail_keeps_relative_precision(self):
        # sf(300, 1) ~ 3e-67; a 1-cdf evaluation would return 0 here.
        assert chisq_sf(300.0, 1) == pytest.approx(
            scipy.stats.chi2.sf(300.0, 1), rel=1e-10
        )
        assert chisq_sf(300.0, 1) > 0.0

    def test_frozen_anchors(self):
        # mpmath: erfc(2) and 1 - erfc(sqrt(3.8415 / 2)).
        assert chisq_sf(8.0, 1) == pytest.approx(0.004677734981047266, rel=1e-12)
        assert chisq_sf(8.0, 1) < 0.01
        assert abs(chisq_cdf(3.8415, 1) - 0.95) < 1e-4
        assert chisq_cdf(3.8415, 1) == pytest.approx(0.9500012279287777, rel=1e-12)

    def test_boundaries_and_complement(self):
        assert chisq_cdf(0.0, 1) == 0.0
        assert chisq_sf(0.0, 1) == 1.0
        for x in (0.7, 5.0, 33.0):
            assert chisq_cdf(x, 1) + chisq_sf(x, 1) == pytest.approx(1.0, abs=1e-12)
        # Beyond the last float tail, and at infinity, the tail is 0, not an error.
        for x in (1e308, float("inf")):
            assert chisq_sf(x, 1) == 0.0
            assert chisq_cdf(x, 1) == 1.0

    @pytest.mark.parametrize(
        "bad_x,bad_df", [(-1.0, 1), (2.0, 0), (2.0, 1.5), (2.0, 2), (float("nan"), 1)]
    )
    def test_invalid_arguments_rejected(self, bad_x, bad_df):
        with pytest.raises(ValueError):
            chisq_cdf(bad_x, bad_df)
        with pytest.raises(ValueError):
            chisq_sf(bad_x, bad_df)


class TestTRatio:
    def test_statistic_and_auto_direction(self):
        res = t_test(1.0, 0.5)
        assert res.statistic == 2.0
        assert res.sidedness == "one_sided_greater"
        assert res.p_value == pytest.approx(PHI_MINUS_2, rel=1e-13)
        assert res.df is None
        assert res.method == "t_ratio"

        res = t_test(-1.0, 0.5)
        assert res.sidedness == "one_sided_less"
        assert res.p_value == pytest.approx(PHI_MINUS_2, rel=1e-13)

    def test_two_sided_is_exactly_twice_one_sided(self):
        for est, se in ((0.3, 0.11), (-2.0, 0.7), (1.4, 1.4), (-0.02, 0.5)):
            one = t_test(est, se, sidedness="auto").p_value
            two = t_test(est, se, sidedness="two_sided").p_value
            assert two == 2.0 * one

    def test_zero_statistic(self):
        res = t_test(0.0, 1.0)
        assert res.statistic == 0.0
        assert res.sidedness == "one_sided_greater"
        assert res.p_value == 0.5

    def test_nonzero_null_value(self):
        res = t_test(2.0, 0.5, h0_value=1.0)
        assert res.statistic == 2.0
        assert "value = 1" in res.h0_description

    def test_declared_direction_honoured_with_sign_conflict_note(self):
        res = t_test(0.3, 0.1, sidedness="less")
        assert res.statistic == pytest.approx(3.0)
        assert res.sidedness == "one_sided_less"
        assert res.p_value == pytest.approx(PHI_3, rel=1e-13)
        assert any("null side" in note for note in res.notes)

        clean = t_test(-0.3, 0.1, sidedness="less")
        assert clean.notes == ()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            t_test(1.0, 0.0)
        with pytest.raises(ValueError):
            t_test(1.0, -0.5)
        with pytest.raises(ValueError):
            t_test(1.0, 0.5, sidedness="both")


class TestWald:
    def test_squares_the_t_ratio(self):
        res = wald_test(1.0, 0.5)
        assert res.statistic == 4.0
        assert res.df == 1
        assert res.method == "wald"

    def test_agrees_with_two_sided_t(self):
        # Same tail mass through two routes: chi-square(1) upper tail versus
        # doubled normal tail.
        for est, se in ((0.5, 0.3), (-1.9, 0.44), (0.01, 0.2), (3.5, 0.6), (-7.0, 1.1)):
            p_wald = wald_test(est, se).p_value
            p_t = t_test(est, se, sidedness="two_sided").p_value
            assert p_wald == p_t
        # t overflows to infinity; the p is the tail there, 0.
        assert wald_test(1e200, 1e-200).p_value == 0.0

    def test_invalid_se_rejected(self):
        with pytest.raises(ValueError):
            wald_test(1.0, 0.0)

    @settings(max_examples=500, deadline=None)
    @given(
        estimate=st.floats(-50, 50),
        se=st.floats(1e-300, 10),
        h0=st.sampled_from((0.0, 1.0)) | st.floats(-5, 5),
    )
    def test_two_sided_t_wald_and_chi_square_p_values_agree(self, estimate, se, h0):
        t = t_test(estimate, se, h0, sidedness="two_sided")
        p_wald = wald_test(estimate, se, h0).p_value
        assert p_wald == t.p_value
        # t * t, not t**2: a float power raises OverflowError once |t| > 1e154.
        assert abs(t.p_value - chisq_sf(t.statistic * t.statistic, 1)) <= 1e-12


class TestLikelihoodRatio:
    def test_frozen_example(self):
        res = lr_test(-100.0, -104.0)
        assert res.statistic == 8.0
        assert res.p_value == pytest.approx(0.004677734981047266, rel=1e-12)
        assert res.df == 1
        assert res.method == "lr"

    def test_tiny_inversion_clamped_to_zero(self):
        res = lr_test(-100.0 - 1e-9, -100.0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_nesting_violation_raises(self):
        with pytest.raises(NestingError):
            lr_test(-100.0, -99.99999)

    @pytest.mark.parametrize(
        "ll_general,ll_restricted",
        [(float("nan"), -100.0), (-100.0, float("nan")), (-100.0, float("-inf"))],
    )
    def test_non_finite_statistic_rejected(self, ll_general, ll_restricted):
        # A NaN statistic is not clamped to 0 and read as p = 1.
        with pytest.raises(ValueError):
            lr_test(ll_general, ll_restricted)


def _held_fit(design, name, value=0.0):
    # The restricted fit: the general design with ``name`` held at ``value``.
    col = design.free_names.index(name)
    start = design.start_values.copy()
    start[col] = value
    return estimate_design(design, start=start, hold=(col,))


def _bhhh_forced(fit):
    # The fit with its Hessian negated, so -H is negative definite and the
    # LM test takes the score outer-product route.
    return replace(fit, hessian_at_optimum=-fit.hessian_at_optimum)


class TestLmAtRestrictedEstimates:
    def test_agrees_with_lr_when_restriction_is_false(self):
        dataset = three_mode_data(n_persons=1500, obs_per_person=1, seed=31)
        spec = three_mode_spec()
        design = build_design(dataset, spec)

        restricted = _held_fit(design, "b_cost")
        general = estimate_design(design)
        assert restricted.status == "converged" and general.status == "converged"

        res_lm = lm_test_at(design, restricted)
        res_lr = lr_test(general.ll_hat, restricted.ll_hat)
        assert res_lm.df == res_lr.df == 1

        # Both tests see the same strong violation; statistics agree to
        # first order at this sample size.
        assert res_lm.statistic > 10.0
        assert res_lm.statistic == pytest.approx(res_lr.statistic, rel=0.15)

    @pytest.mark.parametrize("obs_per_person", [1, 3])
    def test_matches_the_evaluate_oracle_on_both_routes(self, obs_per_person):
        dataset = three_mode_data(n_persons=200, obs_per_person=obs_per_person, seed=32)
        design = build_design(dataset, three_mode_spec())
        fit = _held_fit(design, "b_cost")
        assert fit.converged
        newton = lm_test_at(design, fit)
        assert_close_rel(newton.statistic, lm_oracle(design, fit.params_hat), 1e-12)
        bhhh = lm_test_at(design, _bhhh_forced(fit))
        want = lm_oracle(design, fit.params_hat, bhhh=True)
        assert_close_rel(bhhh.statistic, want, 1e-12)
        assert bhhh.p_value == pytest.approx(chisq_sf(want, 1), rel=1e-12)

    def test_newton_route_makes_no_probabilities_pass(self, monkeypatch):
        # The statistic comes from the fit's last pass; the test evaluates nothing.
        design = build_design(three_mode_data(n_persons=200, obs_per_person=1, seed=32), three_mode_spec())
        fit = _held_fit(design, "b_cost")
        calls = []
        real = DesignArrays.probabilities

        def counting(self, params):
            calls.append(params)
            return real(self, params)

        monkeypatch.setattr(DesignArrays, "probabilities", counting)
        assert lm_test_at(design, fit).statistic > 0.0
        assert calls == []

    def test_bhhh_fallback_counts_person_weights(self):
        # Weights of 2 are the sample with every person twice, so the
        # fallback information doubles with the gradient.
        dataset = three_mode_data(n_persons=200, obs_per_person=2, seed=32)
        spec = three_mode_spec()
        copies = replace(
            take_observations(dataset, np.tile(np.arange(dataset.n_obs), 2)),
            person_ids=[pid + copy for copy in ("a", "b") for pid in dataset.person_ids],
            obs_ids=[oid + copy for copy in ("a", "b") for oid in dataset.obs_ids],
        )
        duplicated = build_design(copies, spec)
        doubled = build_design(dataset, spec).weighted(np.full(dataset.n_persons, 2.0))
        fit = _held_fit(doubled, "b_cost")
        # The duplicated sample's own record at the same point.
        _, gradient, hessian, _ = duplicated.evaluate(fit.params_hat)
        twin = replace(fit, gradient=gradient, hessian_at_optimum=hessian)
        want = lm_test_at(duplicated, _bhhh_forced(twin))
        got = lm_test_at(doubled, _bhhh_forced(fit))
        assert got.statistic == pytest.approx(want.statistic, rel=1e-12)
        assert got.p_value == pytest.approx(want.p_value, rel=1e-12)


class TestAsymptoticCi:
    def test_bounds_formula(self):
        ci = asymptotic_ci(1.2, 0.4, level=0.95)
        z = z_for_level(0.95)
        assert ci.lower == 1.2 - z * 0.4
        assert ci.upper == 1.2 + z * 0.4
        assert ci.level == 0.95
        assert ci.asymmetry_index == 0.0
        assert ci.method == "asymptotic_classical"
        assert ci.width == ci.upper - ci.lower

    def test_degenerate_when_se_is_zero(self):
        ci = asymptotic_ci(3.0, 0.0)
        assert ci.lower == ci.upper == 3.0
        assert ci.width == 0.0

    def test_method_label_passes_through(self):
        ci = asymptotic_ci(0.0, 1.0, method="asymptotic_robust")
        assert ci.method == "asymptotic_robust"

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_ci(0.0, -1.0)
        with pytest.raises(ValueError):
            asymptotic_ci(0.0, 1.0, level=1.0)

    def test_is_frozen_value_object(self):
        ci = asymptotic_ci(0.0, 1.0)
        assert isinstance(ci, ConfidenceInterval)
        with pytest.raises(AttributeError):
            ci.lower = -1.0


class TestResolveSidedness:
    @pytest.mark.parametrize(
        "alternative, sided, expected",
        [
            ("less", "auto", "less"),
            ("less", "one", "less"),
            ("less", "two", "two_sided"),
            ("greater", "auto", "greater"),
            ("greater", "one", "greater"),
            ("greater", "two", "two_sided"),
            ("two_sided", "auto", "two_sided"),
            ("two_sided", "one", "auto"),
            ("two_sided", "two", "two_sided"),
            ("auto", "auto", "auto"),
            ("auto", "one", "auto"),
            ("auto", "two", "two_sided"),
        ],
    )
    def test_declared_alternative_under_each_flag(self, alternative, sided, expected):
        assert resolve_sidedness(alternative, sided) == expected

    def test_undeclared_replaces_only_the_one_sided_fallback(self):
        assert [resolve_sidedness(a, "one", undeclared="greater") for a in ("auto", "two_sided", "less")] == [
            "greater", "greater", "less"
        ]
        assert resolve_sidedness("auto", "auto", undeclared="greater") == "auto"


class TestAsymptoticRecord:
    def test_holds_each_test_and_interval_of_its_inputs(self):
        tests, intervals = asymptotic_record(-0.4, 0.1, 0.15, -0.2, "less", 0.9)
        assert tests == {
            "t_classical": t_test(-0.4, 0.1, -0.2, "less"),
            "t_robust": t_test(-0.4, 0.15, -0.2, "less"),
            "wald": wald_test(-0.4, 0.1, -0.2),
        }
        assert intervals == {
            "classical": asymptotic_ci(-0.4, 0.1, 0.9),
            "robust": asymptotic_ci(-0.4, 0.15, 0.9, method="asymptotic_robust"),
        }

    @settings(max_examples=500, deadline=None)
    @given(
        estimate=st.floats(-1e3, 1e3),
        se=st.floats(1e-3, 1e3),
        h0=st.sampled_from((0.0, 1.0)) | st.floats(-1e3, 1e3),
        level=st.sampled_from((0.9, 0.95, 0.99)) | st.floats(0.5, 0.999),
    )
    def test_interval_holds_the_null_exactly_when_the_two_sided_test_keeps_it(self, estimate, se, h0, level):
        tests, intervals = asymptotic_record(estimate, se, 2.0 * se, h0, "two_sided", level)
        t = tests["t_classical"]
        # Within rounding of |t| = z either verdict is right.
        assume(abs(abs(t.statistic) - z_for_level(level)) > 1e-9)
        ci = intervals["classical"]
        assert (ci.lower <= h0 <= ci.upper) == (t.p_value >= 1.0 - level)
        # Subnormal p-values carry fewer digits than 1e-12 asks for.
        if t.p_value >= sys.float_info.min:
            assert tests["wald"].p_value == pytest.approx(t.p_value, rel=1e-12, abs=0.0)
