"""Person-level bootstrap: resampling, replicates, intervals, empirical p."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import choicestats.bootstrap as bootstrap_module
import choicestats.estimation as estimation_module
from choicestats import (
    MIN_DRAWS,
    BootstrapResult,
    ChoiceStatsError,
    ConvergenceError,
    DesignArrays,
    EmpiricalPValue,
    IdentificationError,
    IdentificationRiskWarning,
    ReplicateFailureWarning,
    asymmetry_index,
    asymptotic_ci,
    bootstrap_covariance,
    bootstrap_record,
    bootstrap_run,
    build_design,
    empirical_p_value,
    estimate_design,
    hpd_interval,
    quantile_interval,
    save_draws,
    seed_from,
)

from testtools import shift_spec, three_mode_data, three_mode_spec


def _count_kernel_passes(monkeypatch):
    """Counts of DesignArrays.probabilities and .derivatives calls from now on."""
    calls = {"probabilities": 0, "derivatives": 0}
    for name in calls:
        real = getattr(DesignArrays, name)

        def counting(design, arg, _real=real, _name=name):
            calls[_name] += 1
            return _real(design, arg)

        monkeypatch.setattr(DesignArrays, name, counting)
    return calls


def small_run(s_samples=40, base_seed=5, jobs=1):
    dataset = three_mode_data(n_persons=80, obs_per_person=1, seed=11)
    design = build_design(dataset, three_mode_spec())
    return bootstrap_run(design, s_samples=s_samples, base_seed=base_seed, jobs=jobs)


class TestBootstrapRun:
    def test_shapes_and_reproducibility(self):
        result = small_run()
        assert isinstance(result, BootstrapResult)
        assert result.draws.shape == (40, 4)
        assert len(result.statuses) == 40
        assert result.names == ["asc_bus", "asc_rail", "b_tt", "b_cost"]
        assert result.s_samples == 40
        assert result.base_seed == 5
        assert result.s_converged + result.n_failed == 40

        again = small_run()
        assert np.array_equal(result.draws, again.draws)
        assert np.array_equal(result.converged, again.converged)

        shifted = small_run(base_seed=6)
        assert not np.array_equal(result.draws, shifted.draws)

    def test_job_count_does_not_change_draws(self):
        serial = small_run(s_samples=16, jobs=1)
        parallel = small_run(s_samples=16, jobs=4)
        assert np.array_equal(serial.draws, parallel.draws)
        assert serial.statuses == parallel.statuses

    def test_too_few_replicates_rejected(self):
        dataset = three_mode_data(n_persons=20, obs_per_person=1, seed=2)
        design = build_design(dataset, three_mode_spec())
        with pytest.raises(ValueError):
            bootstrap_run(design, s_samples=1)

    def test_replicates_start_from_the_full_sample_estimate(self, monkeypatch):
        # Each replicate starts one Newton step from the full-sample estimate:
        # the step of its own weighted design, found from the persons' scores
        # and information at the estimate.
        real = bootstrap_module.estimate_design
        starts = []

        def recording(design, **kwargs):
            starts.append((design, kwargs.get("start")))
            return real(design, **kwargs)

        monkeypatch.setattr(bootstrap_module, "estimate_design", recording)
        monkeypatch.setattr(estimation_module, "estimate_design", recording)
        dataset = three_mode_data(n_persons=40, obs_per_person=1, seed=13)
        design = build_design(dataset, three_mode_spec())
        mle = real(design).params_hat
        terms = design.person_terms(design.probabilities(mle), information=True)
        given = bootstrap_run(design, s_samples=5, base_seed=1, mle=mle)
        assert len(starts) == 5
        for replicate, start in starts:
            counts = np.zeros(design.n_persons)
            counts[[design.person_ids.index(p) for p in replicate.person_ids]] = (
                replicate.person_weights
            )
            want = bootstrap_module._one_step_start(mle, terms, counts)
            assert np.array_equal(start, want) and not np.array_equal(start, mle)
        # Without one, the run fits the full sample first, from the declared
        # start values, and starts every replicate from there.
        given_starts = [start for _, start in starts]
        starts.clear()
        fitted = bootstrap_run(design, s_samples=5, base_seed=1)
        assert np.array_equal(starts[0][1], design.start_values) and len(starts) == 6
        assert all(np.array_equal(a, b) for (_, a), b in zip(starts[1:], given_starts))
        assert np.array_equal(fitted.draws, given.draws)

    def test_one_step_start_is_the_first_newton_iterate(self, monkeypatch):
        dataset = three_mode_data(n_persons=60, obs_per_person=2, seed=3)
        design = build_design(dataset, three_mode_spec())
        mle = estimate_design(design).params_hat
        terms = design.person_terms(design.probabilities(mle), information=True)
        rng = np.random.default_rng(3)
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        for _ in range(5):
            counts = np.bincount(rng.integers(0, 60, 60), minlength=60)
            first = estimate_design(design.weighted(counts), start=mle)
            assert first.iterations == 1
            start = bootstrap_module._one_step_start(mle, terms, counts)
            np.testing.assert_allclose(start, first.params_hat, rtol=1e-10, atol=0)

    def test_singular_replicate_information_falls_back_to_the_estimate(self):
        # Person 0's information is singular, person 1's is 2 I; both scores are ones.
        mle = np.array([0.5, -1.0])
        terms = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 0.0, 0.0, 2.0]])
        assert bootstrap_module._one_step_start(mle, terms, np.array([3, 0])) is mle
        start = bootstrap_module._one_step_start(mle, terms, np.array([0, 2]))
        np.testing.assert_array_equal(start, mle + 0.5)

    def test_a_run_of_30_replicates_takes_71_softmax_passes(self, monkeypatch):
        # Six for the full-sample fit, one for the person terms, and two per
        # replicate, save the four replicates whose second point certifies
        # no step and which take a third.
        calls = _count_kernel_passes(monkeypatch)
        dataset = three_mode_data(n_persons=500, obs_per_person=4, seed=1)
        design = build_design(dataset, three_mode_spec())
        result = bootstrap_run(design, s_samples=30, base_seed=1)
        assert result.n_failed == 0
        assert calls == {"probabilities": 71, "derivatives": 70}

    def test_a_replicate_certified_at_its_second_point_takes_two_passes(self, monkeypatch):
        # Replicate 2's start and second point are evaluated; the Newton
        # decrement there is 2e-11, so the step from there gives the estimate
        # without a pass at it, the point where the full fit's gradient test
        # stops.
        dataset = three_mode_data(n_persons=500, obs_per_person=4, seed=1)
        design = build_design(dataset, three_mode_spec())
        mle = estimate_design(design).params_hat
        terms = design.person_terms(design.probabilities(mle), information=True)
        n = design.n_persons
        counts = np.bincount(np.random.default_rng(seed_from(1, 2)).integers(0, n, n), minlength=n)
        full = estimate_design(
            design.weighted(counts), start=bootstrap_module._one_step_start(mle, terms, counts)
        )
        assert full.iterations == 2
        calls = _count_kernel_passes(monkeypatch)
        estimate = bootstrap_module._bootstrap_replicate(design, 1, mle, terms, 2)
        assert calls == {"probabilities": 2, "derivatives": 2}
        assert estimate.tobytes() == full.params_hat.tobytes()

    def test_the_person_terms_take_one_softmax_pass_on_the_full_sample(self, monkeypatch):
        dataset = three_mode_data(n_persons=40, obs_per_person=2, seed=13)
        design = build_design(dataset, three_mode_spec())
        mle = estimate_design(design).params_hat
        real = DesignArrays.probabilities
        calls = []

        def counting(self, params):
            calls.append(self is design)
            return real(self, params)

        monkeypatch.setattr(DesignArrays, "probabilities", counting)
        bootstrap_run(design, s_samples=5, mle=mle)
        assert calls.count(True) == 1

    def test_replicate_failures_flagged_and_warned(self, monkeypatch):
        real = bootstrap_module.estimate_design
        calls = {"n": 0}

        def flaky(design, **kwargs):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise ChoiceStatsError("synthetic replicate failure")
            return real(design, **kwargs)

        monkeypatch.setattr(bootstrap_module, "estimate_design", flaky)
        dataset = three_mode_data(n_persons=40, obs_per_person=1, seed=13)
        design = build_design(dataset, three_mode_spec())
        with pytest.warns(ReplicateFailureWarning, match="replicates failed"):
            result = bootstrap_run(design, s_samples=15, base_seed=1)

        assert result.n_failed == 5
        assert result.s_converged == 10
        failed_rows = result.draws[~result.converged]
        assert np.isnan(failed_rows).all()
        assert result.converged_draws().shape == (10, 4)
        assert all(
            status == "synthetic replicate failure"
            for status, ok in zip(result.statuses, result.converged)
            if not ok
        )

    def test_nonconverged_replicate_is_a_nan_row_with_its_status(self, monkeypatch):
        real = bootstrap_module.estimate_design
        calls = {"n": 0}

        def stalling(design, **kwargs):
            calls["n"] += 1
            result = real(design, **kwargs)
            return dataclasses.replace(result, status="max_iterations") if calls["n"] == 2 else result

        monkeypatch.setattr(bootstrap_module, "estimate_design", stalling)
        dataset = three_mode_data(n_persons=40, obs_per_person=1, seed=13)
        design = build_design(dataset, three_mode_spec())
        mle = real(design).params_hat
        result = bootstrap_run(design, s_samples=12, base_seed=1, mle=mle)

        assert result.statuses == ("converged", "max_iterations") + ("converged",) * 10
        assert result.converged.tolist() == [True, False] + [True] * 10
        assert np.isnan(result.draws[1]).all() and np.isfinite(result.draws[[0, 2]]).all()
        assert result.n_failed == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_value_error_in_a_replicate_propagates(self, jobs):
        # A start vector of the wrong length is a shape bug, not a failed replicate.
        dataset = three_mode_data(n_persons=40, obs_per_person=1, seed=13)
        design = build_design(dataset, three_mode_spec())
        with pytest.raises(ValueError, match="start vector must have length 4"):
            bootstrap_run(design, s_samples=4, base_seed=1, jobs=jobs, mle=np.zeros(3))

    @staticmethod
    def _no_replicate(monkeypatch):
        def refuse(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(bootstrap_module, "parallel_map", refuse)

    def test_an_estimate_with_a_singular_hessian_is_refused_before_any_replicate(self, monkeypatch):
        self._no_replicate(monkeypatch)
        dataset = three_mode_data(n_persons=50, obs_per_person=1, seed=13)
        with pytest.warns(IdentificationRiskWarning, match="every alternative carries a free constant"):
            design = build_design(dataset, shift_spec())
        with pytest.raises(IdentificationError, match="^the Hessian is singular\n  rank 4, "):
            bootstrap_run(design, s_samples=20)

    def test_an_estimate_that_runs_out_of_iterations_is_refused_before_any_replicate(self, monkeypatch):
        self._no_replicate(monkeypatch)
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-13)
        design = build_design(three_mode_data(n_persons=50, obs_per_person=1, seed=13), three_mode_spec())
        with pytest.raises(ConvergenceError, match=r"^estimation did not converge \(status: max_iterations\)$"):
            bootstrap_run(design, s_samples=20)

    def test_draws_scatter_around_full_data_estimate(self):
        dataset = three_mode_data(n_persons=80, obs_per_person=1, seed=11)
        fit = estimate_design(build_design(dataset, three_mode_spec()))
        result = small_run()
        means = result.converged_draws().mean(axis=0)
        assert np.all(np.abs(means - fit.params_hat) < 0.25)


class TestBootstrapCovariance:
    def test_matches_numpy_ddof_1(self):
        result = small_run()
        cov = bootstrap_covariance(result)
        want = np.cov(result.converged_draws().T, ddof=1)
        assert np.allclose(cov, want, rtol=1e-12, atol=0)
        assert np.array_equal(cov, cov.T)

    def test_needs_two_converged_replicates(self):
        result = BootstrapResult(
            s_samples=12,
            base_seed=0,
            draws=np.zeros((12, 2)),
            converged=np.array([True] + [False] * 11),
            n_failed=11,
            names=["a", "b"],
            statuses=("converged",) + ("failed",) * 11,
        )
        with pytest.raises(ValueError):
            bootstrap_covariance(result)


class TestQuantileInterval:
    def test_integral_positions_use_exact_order_statistics(self):
        # S = 400 at level 0.95: alpha/2*S = 10, so the bounds are the 10th
        # and 391st order statistics, no interpolation.
        draws = np.random.default_rng(0).permutation(np.arange(1.0, 401.0))
        ci = quantile_interval(draws, 0.95, center=200.0)
        assert ci.lower == 10.0
        assert ci.upper == 391.0
        assert ci.method == "bootstrap_quantile"
        assert ci.notes == ()

    def test_non_integral_positions_interpolate_with_note(self):
        draws = np.arange(1.0, 76.0)  # S = 75, alpha/2*S = 1.875
        ci = quantile_interval(draws, 0.95, center=38.0)
        assert ci.lower == pytest.approx(1.0 + 0.875 * (2.0 - 1.0))
        assert ci.upper == pytest.approx(74.0 + 0.125 * (75.0 - 74.0))
        assert any("non-integral" in note for note in ci.notes)

    def test_positions_outside_sample_are_clamped_with_note(self):
        draws = np.arange(1.0, 11.0)  # S = 10 cannot support level 0.99
        ci = quantile_interval(draws, 0.99, center=5.0)
        assert ci.lower == 1.0
        assert ci.upper == 10.0
        assert any("clamped" in note for note in ci.notes)

    def test_asymmetry_uses_supplied_center(self):
        draws = np.random.default_rng(1).permutation(np.arange(1.0, 401.0))
        ci = quantile_interval(draws, 0.95, center=40.0)
        want = ((ci.upper - 40.0) - (40.0 - ci.lower)) / (ci.upper - ci.lower)
        assert ci.asymmetry_index == pytest.approx(want, rel=1e-15)

    def test_nan_draws_dropped_before_quantiles(self):
        draws = np.concatenate([np.arange(1.0, 401.0), [np.nan, np.nan]])
        ci = quantile_interval(draws, 0.95, center=200.0)
        assert ci.lower == 10.0 and ci.upper == 391.0

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            quantile_interval(np.arange(float(MIN_DRAWS - 1)), 0.95, center=0.0)
        with pytest.raises(ValueError):
            quantile_interval(np.arange(1.0, 401.0), 1.0, center=0.0)


class TestHpdInterval:
    def test_uniform_draws_tie_breaks_to_lowest_window(self):
        # All 95-draw windows over 1..100 have equal width; the first wins.
        draws = np.random.default_rng(2).permutation(np.arange(1.0, 101.0))
        ci = hpd_interval(draws, 0.95, center=50.0)
        assert ci.lower == 1.0
        assert ci.upper == 95.0
        assert ci.method == "hpd"

    def test_finds_the_narrowest_window(self):
        # Mass packed near 0 with a long right tail; the narrowest window
        # hugs the dense region.
        rng = np.random.default_rng(3)
        draws = rng.lognormal(0.0, 1.0, size=2000)
        ci = hpd_interval(draws, 0.9, center=1.0)
        m = int(np.ceil(0.9 * 2000))
        sorted_draws = np.sort(draws)
        widths = sorted_draws[m - 1 :] - sorted_draws[: 2000 - m + 1]
        assert ci.width == pytest.approx(float(widths.min()), rel=1e-15)
        assert ci.lower < 0.3

    def test_never_wider_than_quantile_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            draws = rng.lognormal(0.0, 0.8, size=400)
            for level in (0.8, 0.9, 0.95):
                hpd = hpd_interval(draws, level, center=1.0)
                quant = quantile_interval(draws, level, center=1.0)
                assert hpd.width <= quant.width + 1e-12

    def test_integral_level_times_s_is_not_rounded_up(self):
        # 0.68 * 75 is 51.00000000000001 in floating point: 51 order
        # statistics, not 52, as quantile_interval reads it.
        ci = hpd_interval(np.arange(1.0, 76.0), 0.68, center=38.0)
        assert (ci.lower, ci.upper) == (1.0, 51.0)

    def test_level_and_draw_validation(self):
        with pytest.raises(ValueError):
            hpd_interval(np.arange(float(MIN_DRAWS - 1)), 0.95, center=0.0)
        with pytest.raises(ValueError):
            hpd_interval(np.arange(1.0, 101.0), 0.0, center=0.0)


class TestEmpiricalPValue:
    def test_counts_opposite_sign_draws(self):
        draws = np.array([-0.5, -0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        p = empirical_p_value(draws, mle=0.4)
        assert p.crossings == 2
        assert p.s_converged == 10
        assert p.value == 0.2
        assert not p.below_resolution

    def test_negative_mle_counts_other_side(self):
        draws = np.array([-0.9, -0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, 0.1, 0.15])
        p = empirical_p_value(draws, mle=-0.5)
        assert p.crossings == 2

    def test_zero_draws_count_as_crossings(self):
        draws = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        assert empirical_p_value(draws, mle=0.4).crossings == 1
        draws_neg = -draws
        assert empirical_p_value(draws_neg, mle=-0.4).crossings == 1

    def test_no_crossings_reports_resolution_bound(self):
        draws = np.arange(1.0, 401.0)
        p = empirical_p_value(draws, mle=200.0)
        assert p.crossings == 0
        assert p.below_resolution
        assert p.value == 0.0
        assert p.display() == "< 0.0025"

    @pytest.mark.parametrize(
        "s_converged, want",
        [(3, "< 0.334"), (997, "< 0.00101"), (1000, "< 0.001"), (1024, "< 0.000977"), (200, "< 0.005"), (50, "< 0.02")],
    )
    def test_resolution_bound_rounds_up(self, s_converged, want):
        # The bound 1/S rounds up at three significant digits, so it never
        # prints below 1/S; an exact 1/S prints as it is.
        text = EmpiricalPValue(crossings=0, s_converged=s_converged).display()
        assert text == want
        assert float(text[2:]) >= 1.0 / s_converged

    def test_display_formats_exact_values(self):
        p = EmpiricalPValue(crossings=2, s_converged=400)
        assert p.display() == "0.005"
        assert p.display(digits=2) == "0.01"

    def test_zero_mle_rejected(self):
        with pytest.raises(ValueError):
            empirical_p_value(np.arange(1.0, 11.0), mle=0.0)


class TestAsymmetryIndex:
    def test_symmetric_interval_scores_zero(self):
        assert asymmetry_index(-1.0, 0.0, 1.0) == 0.0

    def test_right_skewed_interval_is_positive(self):
        # Center 1, bounds [0.5, 2.5]: ((2.5-1) - (1-0.5)) / 2 = 0.5.
        assert asymmetry_index(0.5, 1.0, 2.5) == pytest.approx(0.5)
        assert asymmetry_index(-2.5, -1.0, -0.5) == pytest.approx(-0.5)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            asymmetry_index(1.0, 1.0, 1.0)


#: Draws on a grid of eighths, so that sums and reflections are exact.
_DRAWS = st.lists(st.integers(-800, 800), min_size=MIN_DRAWS, max_size=80).map(
    lambda values: np.array(values, dtype=float) / 8.0
)
#: Levels, among them some whose product with S is integral up to rounding.
_LEVELS = st.sampled_from((0.5, 0.68, 0.8, 0.9, 0.95, 0.99)) | st.floats(0.05, 0.99)


class TestIntervalProperties:
    @settings(max_examples=300, deadline=None)
    @given(draws=_DRAWS, level=_LEVELS)
    def test_hpd_spans_ceil_level_s_order_statistics(self, draws, level):
        s = draws.size
        # The fewest order statistics covering level * S, read to 1e-9.
        m = next(m for m in range(2, s + 1) if m >= level * s - 1e-9)
        ordered = np.sort(draws)
        widths = ordered[m - 1 :] - ordered[: s - m + 1]
        hpd = hpd_interval(draws, level, center=0.0)
        start = int(np.argmin(widths))
        assert (hpd.lower, hpd.upper) == (ordered[start], ordered[start + m - 1])

    @settings(max_examples=300, deadline=None)
    @given(draws=_DRAWS, level=_LEVELS)
    def test_hpd_is_never_wider_than_equal_tail(self, draws, level):
        hpd = hpd_interval(draws, level, center=0.0)
        quantile = quantile_interval(draws, level, center=0.0)
        assert hpd.width <= quantile.width + 1e-12 * max(1.0, np.abs(draws).max())

    @settings(max_examples=300, deadline=None)
    @given(
        draws=_DRAWS,
        level=_LEVELS,
        share=st.floats(0.0, 1.0),
        scale=st.sampled_from((0.25, 1.0, 3.0, 64.0)),
        shift=st.integers(-50, 50),
    )
    def test_asymmetry_index_bounds_reflection_and_affine_invariance(
        self, draws, level, share, scale, shift
    ):
        quantile = quantile_interval(draws, level, center=0.0)
        assume(quantile.width > 0)
        # lower + 1.0 * width can round one unit past upper, outside the interval.
        center = min(quantile.lower + share * quantile.width, quantile.upper)
        index = quantile_interval(draws, level, center).asymmetry_index
        assert -1.0 <= index <= 1.0
        reflected = quantile_interval(-draws, level, -center).asymmetry_index
        assert reflected == pytest.approx(-index, abs=1e-9)
        moved = quantile_interval(scale * draws + shift, level, scale * center + shift)
        assert moved.asymmetry_index == pytest.approx(index, abs=1e-9)
        hpd = hpd_interval(draws, level, center=0.0)
        if hpd.width > 0:
            inside = min(hpd.lower + share * hpd.width, hpd.upper)
            assert -1.0 <= hpd_interval(draws, level, inside).asymmetry_index <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        draws=st.lists(
            st.sampled_from((0.0, -1.5, 2.0, np.nan, np.inf)) | st.floats(-5, 5),
            min_size=MIN_DRAWS,
            max_size=60,
        ).filter(lambda values: np.isfinite(values).sum() >= MIN_DRAWS),
        mle=st.sampled_from((-0.5, 0.5)) | st.floats(-5, 5).filter(bool),
    )
    def test_empirical_p_value_is_crossings_over_s(self, draws, mle):
        finite = [d for d in draws if math.isfinite(d)]
        crossings = sum(1 for d in finite if (d <= 0.0 if mle > 0.0 else d >= 0.0))
        p = empirical_p_value(np.array(draws), mle)
        assert (p.crossings, p.s_converged) == (crossings, len(finite))
        assert p.value == crossings / len(finite)
        assert p.below_resolution == (crossings == 0)


class TestCertifiedStep:
    @settings(max_examples=40, deadline=None)
    @given(
        n_persons=st.integers(60, 200),
        obs_per_person=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        draws=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    )
    def test_a_replicate_estimate_is_the_full_fits(self, n_persons, obs_per_person, seed, draws):
        # Bit for bit the point where the full fit's gradient test stops. A
        # certified step whose end point fails that test lets the full fit
        # go on; such a case is counted, and the two lie within 1e-8 SE.
        data = three_mode_data(n_persons=n_persons, obs_per_person=obs_per_person, seed=seed)
        design = build_design(data, three_mode_spec())
        full_sample = estimate_design(design)
        assume(full_sample.converged)
        mle = full_sample.params_hat
        terms = design.person_terms(design.probabilities(mle), information=True)
        differ = 0
        for draw in draws:
            counts = np.bincount(
                np.random.default_rng(draw).integers(0, n_persons, n_persons), minlength=n_persons
            )
            replicate = design.weighted(counts)
            start = bootstrap_module._one_step_start(mle, terms, counts)
            full = estimate_design(replicate, start=start)
            assume(full.converged)
            got = estimate_design(replicate, start=start, estimate_only=True)
            assert got.converged and got.iterations <= full.iterations
            if got.params_hat.tobytes() != full.params_hat.tobytes():
                differ += 1
                se = np.sqrt(np.diag(np.linalg.inv(-full.hessian_at_optimum)))
                assert np.all(np.abs(got.params_hat - full.params_hat) <= 1e-8 * se)
        event(f"replicates differing from the full fit: {differ} of {len(draws)}")

    def test_a_replicate_without_a_newton_step_at_its_start_takes_bhhh(self, monkeypatch):
        # -H is made negative definite at the start, so the first direction is
        # BHHH's; a BHHH direction never ends a fit, and Newton steps from
        # the next point on reach the full fit's estimate.
        dataset = three_mode_data(n_persons=200, obs_per_person=2, seed=4)
        design = build_design(dataset, three_mode_spec())
        mle = estimate_design(design).params_hat
        terms = design.person_terms(design.probabilities(mle), information=True)
        counts = np.bincount(np.random.default_rng(4).integers(0, 200, 200), minlength=200)
        replicate = design.weighted(counts)
        start = bootstrap_module._one_step_start(mle, terms, counts)
        want = estimate_design(replicate, start=start)
        real_derivatives, real_bhhh = DesignArrays.derivatives, DesignArrays.bhhh
        passes = []

        def derivatives(self, p):
            gradient, hessian = real_derivatives(self, p)
            passes.append(gradient)
            return gradient, (hessian if len(passes) > 1 else -hessian)

        def bhhh(self, params):
            bhhh_calls.append(len(passes))
            return real_bhhh(self, params)

        bhhh_calls = []
        monkeypatch.setattr(DesignArrays, "derivatives", derivatives)
        monkeypatch.setattr(DesignArrays, "bhhh", bhhh)
        got = estimate_design(replicate, start=start, estimate_only=True)
        assert bhhh_calls == [1] and got.converged and len(passes) >= 2
        se = np.sqrt(np.diag(np.linalg.inv(-want.hessian_at_optimum)))
        assert np.all(np.abs(got.params_hat - want.params_hat) <= 1e-6 * se)

    def test_a_bhhh_direction_never_certifies(self, monkeypatch):
        # With -H negative definite at every point each direction is BHHH's,
        # so every accepted point is evaluated and the gradient test ends the fit.
        dataset = three_mode_data(n_persons=200, obs_per_person=2, seed=4)
        design = build_design(dataset, three_mode_spec())
        mle = estimate_design(design).params_hat
        real_derivatives = DesignArrays.derivatives
        passes = []

        def derivatives(self, p):
            gradient, hessian = real_derivatives(self, p)
            passes.append(np.abs(gradient).max())
            return gradient, -hessian

        monkeypatch.setattr(DesignArrays, "derivatives", derivatives)
        counts = np.bincount(np.random.default_rng(5).integers(0, 200, 200), minlength=200)
        got = estimate_design(design.weighted(counts), start=mle, estimate_only=True)
        assert got.converged and len(passes) == got.iterations + 1 and passes[-1] <= 1e-6


class TestDrawsRoundTrip:
    def test_saved_draws_read_back_bitwise(self, tmp_path):
        result = small_run(s_samples=12)
        failed = dataclasses.replace(result, converged=np.arange(12) != 3, n_failed=1)
        path = tmp_path / "draws.csv"
        save_draws(failed, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [[str(s), str(int(s != 3))] for s in range(12)]
        assert np.array_equal(np.array([[float(v) for v in row[2:]] for row in rows]), result.draws)

    def test_saved_header_names_parameters(self, tmp_path):
        result = small_run(s_samples=12)
        path = tmp_path / "draws.csv"
        save_draws(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "replicate,converged,asc_bus,asc_rail,b_tt,b_cost"


class TestBootstrapRecord:
    def test_holds_each_interval_and_the_empirical_p_of_its_inputs(self):
        draws = np.linspace(-0.2, 1.0, 25)
        intervals, p = bootstrap_record(draws, 0.4, 0.3, 0.9)
        assert intervals == {
            "quantile": quantile_interval(draws, 0.9, 0.4),
            "hpd": hpd_interval(draws, 0.9, 0.4),
            "asymptotic_bootstrap_se": asymptotic_ci(0.4, 0.3, 0.9, method="asymptotic_bootstrap_se"),
        }
        assert p == empirical_p_value(draws, 0.4)

    def test_an_estimate_of_zero_has_no_empirical_p(self):
        intervals, p = bootstrap_record(np.linspace(-1.0, 1.0, 25), 0.0, 0.5, 0.95)
        assert p is None
        assert intervals["quantile"].lower < 0.0 < intervals["quantile"].upper


class TestDownstreamFromRun:
    def test_intervals_from_replicate_draws(self):
        result = small_run(s_samples=60, base_seed=8)
        column = result.converged_draws()[:, result.names.index("b_tt")]
        center = float(np.median(column))
        quant = quantile_interval(column, 0.9, center=center)
        hpd = hpd_interval(column, 0.9, center=center)
        assert quant.lower < center < quant.upper
        assert hpd.lower < center < hpd.upper
        assert hpd.width <= quant.width + 1e-12
