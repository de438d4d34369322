"""Optimiser behaviour: closed forms, statuses, restarts, identification."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choicestats import (
    ChoiceStatsError,
    Dataset,
    DesignArrays,
    DivergenceWarning,
    EstimationDisagreementWarning,
    IdentificationError,
    ModelSpec,
    ParameterDef,
    StartPointError,
    UtilityTerm,
    build_design,
    check_identification,
    estimate_design,
    multi_start,
)
from choicestats import estimation as estimation_module
from choicestats.linalg import solve_positive_definite
from testtools import assert_close_rel, hand_dataset, three_mode_data, three_mode_spec

TWO_ALTS = ("car", "bus")


def constants_only_spec(alternatives):
    # One constant per non-base alternative; no attributes at all.
    params = tuple(ParameterDef(f"asc_{a}") for a in alternatives[1:])
    utilities = {a: (UtilityTerm(f"asc_{a}", "_const"),) for a in alternatives[1:]}
    utilities[alternatives[0]] = ()
    return ModelSpec(alternatives, params, utilities)


def constants_only_data(alternatives, counts):
    observations = []
    n = 0
    for j, count in enumerate(counts):
        for _ in range(count):
            n += 1
            observations.append(
                (
                    f"p{n}",
                    f"o{n}",
                    j,
                    tuple(True for _ in alternatives),
                    tuple({} for _ in alternatives),
                )
            )
    return hand_dataset(alternatives, observations)


class TestClosedForms:
    def test_binary_constant_matches_log_odds(self, monkeypatch):
        # With only a constant, the MLE is the log odds of the observed share.
        # A tight gradient tolerance makes the closed form sharp.
        data = constants_only_data(TWO_ALTS, (30, 70))
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-10)
        result = estimate_design(build_design(data, constants_only_spec(TWO_ALTS)))
        assert result.status == "converged"
        assert result.params_hat[0] == pytest.approx(np.log(70 / 30), abs=1e-10)

    def test_three_way_constants_match_share_log_ratios(self, monkeypatch):
        alts = ("a", "b", "c")
        data = constants_only_data(alts, (50, 30, 20))
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-10)
        result = estimate_design(build_design(data, constants_only_spec(alts)))
        assert result.params_hat[0] == pytest.approx(np.log(30 / 50), abs=1e-10)
        assert result.params_hat[1] == pytest.approx(np.log(20 / 50), abs=1e-10)

    def test_log_likelihood_at_optimum_matches_entropy_form(self, monkeypatch):
        alts = ("a", "b", "c")
        counts = np.array([50, 30, 20])
        data = constants_only_data(alts, tuple(counts))
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-10)
        design = build_design(data, constants_only_spec(alts))
        result = estimate_design(design)
        shares = counts / counts.sum()
        expected = float((counts * np.log(shares)).sum())
        assert result.ll_hat == pytest.approx(expected, abs=1e-9)
        assert design.null_log_likelihood() == pytest.approx(-counts.sum() * np.log(3), rel=1e-12)


class TestOptimiserContract:
    def test_converged_result_fields(self):
        data = three_mode_data(n_persons=200, seed=17)
        design = build_design(data, three_mode_spec())
        result = estimate_design(design)
        assert result.status == "converged"
        assert result.converged
        assert result.gradient_norm <= 1e-6
        assert result.iterations >= 1
        assert result.hessian_at_optimum.shape == (4, 4)
        assert result.names == ["asc_bus", "asc_rail", "b_tt", "b_cost"]
        assert set(result.params_dict()) == set(result.names)
        assert result.ll_hat > design.null_log_likelihood()

    def test_estimate_recovers_truth_on_large_sample(self):
        data = three_mode_data(n_persons=4000, obs_per_person=2, seed=23)
        result = estimate_design(build_design(data, three_mode_spec()))
        truth = np.array([0.5, 0.2, -0.05, -0.15])
        assert np.all(np.abs(result.params_hat - truth) < 0.08)

    def test_max_iterations_status(self, monkeypatch):
        data = three_mode_data(n_persons=150, seed=19)
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-12)
        result = estimate_design(build_design(data, three_mode_spec()))
        assert result.status == "max_iterations"
        assert not result.converged

    def test_start_vector_must_match_dimension(self):
        data = three_mode_data(n_persons=30, seed=20)
        design = build_design(data, three_mode_spec())
        with pytest.raises(ValueError):
            estimate_design(design, start=np.zeros(2))

    def test_non_finite_start_rejected(self):
        data = three_mode_data(n_persons=30, seed=20)
        design = build_design(data, three_mode_spec())
        with pytest.raises(ValueError):
            estimate_design(design, start=np.array([np.nan, 0.0, 0.0, 0.0]))

    def test_non_finite_start_raises_start_point_error(self):
        # An expected failure of a replicate, so a ChoiceStatsError.
        design = build_design(three_mode_data(n_persons=30, seed=20), three_mode_spec())
        with pytest.raises(StartPointError, match="not finite at the start point") as raised:
            estimate_design(design, start=np.array([0.0, np.nan, 0.0, 0.0]))
        assert isinstance(raised.value, ChoiceStatsError)

    @pytest.mark.parametrize(
        "max_iterations, status",
        [(200, "converged"), (2, "max_iterations")],
        ids=["converged", "max_iterations"],
    )
    def test_one_softmax_pass_per_accepted_step(self, monkeypatch, max_iterations, status):
        # One softmax pass at the start and one per trial point. An accepted
        # point's derivatives come from its trial pass, so no point is passed
        # twice and no other kernel entry runs.
        points = []
        calls = {"derivatives": 0, "log_likelihood": 0, "evaluate": 0}
        real_probabilities = DesignArrays.probabilities

        def probabilities(self, params):
            points.append(tuple(params))
            return real_probabilities(self, params)

        monkeypatch.setattr(DesignArrays, "probabilities", probabilities)
        for name in calls:
            real = getattr(DesignArrays, name)

            def counting(self, arg, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, arg)

            monkeypatch.setattr(DesignArrays, name, counting)
        design = build_design(three_mode_data(n_persons=200, seed=17), three_mode_spec())
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", max_iterations)
        result = estimate_design(design)
        assert result.status == status
        assert result.iterations >= 2
        trial_points = set(points[1:]) - {points[0]}
        assert len(trial_points) >= result.iterations
        assert len(points) == 1 + len(trial_points)
        assert calls == {"derivatives": result.iterations + 1, "log_likelihood": 0, "evaluate": 0}

    @pytest.mark.parametrize(
        "n_persons, obs_per_person, seed",
        [(200, 1, 8), (100, 4, 5)],
        ids=["cross_section", "panel"],
    )
    def test_quadratic_phase_takes_full_steps(self, monkeypatch, n_persons, obs_per_person, seed):
        # These samples end on a full Newton step whose gain is below the
        # rounding of ll. A strict-gain rule rejects it and halves the step
        # 25 times; past |g| < 1e-3 every iteration must try one point only.
        trials = []  # per accepted point, the start first: [|g|_inf, trial points tried from it]
        real_probabilities = DesignArrays.probabilities
        real_derivatives = DesignArrays.derivatives

        def probabilities(self, params):
            if trials:
                trials[-1][1] += 1
            return real_probabilities(self, params)

        def derivatives(self, p):
            gradient, hessian = real_derivatives(self, p)
            trials.append([np.linalg.norm(gradient, np.inf), 0])
            return gradient, hessian

        monkeypatch.setattr(DesignArrays, "probabilities", probabilities)
        monkeypatch.setattr(DesignArrays, "derivatives", derivatives)
        data = three_mode_data(n_persons=n_persons, obs_per_person=obs_per_person, seed=seed)
        result = estimate_design(build_design(data, three_mode_spec()))
        assert result.converged
        quadratic = [n for g, n in trials[:-1] if g < 1e-3]
        assert quadratic and set(quadratic) == {1}

    def test_declared_start_values_are_used(self):
        data = three_mode_data(n_persons=60, seed=22)
        spec = three_mode_spec()
        design = build_design(data, spec)
        np.testing.assert_array_equal(design.start_values, [0.0, 0.0, -0.05, -0.1])


class TestDuplicationInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        n_persons=st.integers(40, 150),
        obs_per_person=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_of_two_keep_the_estimates_and_halve_the_covariance(
        self, n_persons, obs_per_person, seed
    ):
        # Counting every person twice is duplicating the sample: the same
        # MLE, with twice the information.
        design = build_design(three_mode_data(n_persons, obs_per_person, seed), three_mode_spec())
        doubled = design.weighted(np.full(n_persons, 2.0))
        start = design.start_values
        for got, want in zip(doubled.evaluate(start)[:3], design.evaluate(start)[:3]):
            np.testing.assert_allclose(got, 2.0 * np.asarray(want), rtol=1e-12, atol=1e-12)
        # Both fits run to a gradient of 1e-10, so where each stops within
        # the tolerance moves an estimate by far less than 1e-10 of its SE.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-10)
            once = estimate_design(design)
            twice = estimate_design(doubled)
        assert once.converged and twice.converged
        halved = np.linalg.inv(-once.hessian_at_optimum) / 2.0
        se = np.sqrt(np.diag(halved))
        # rtol 1e-10, with an SE floor for estimates near zero.
        gap = np.abs(twice.params_hat - once.params_hat)
        assert np.all(gap <= 1e-10 * np.maximum(np.abs(once.params_hat), se))
        gap = np.abs(np.linalg.inv(-twice.hessian_at_optimum) - halved)
        assert np.all(gap <= 1e-10 * np.outer(se, se))


class TestDegenerateProblems:
    def test_collinear_attributes_fail_identification(self):
        # Same attribute entered through two coefficients: rank deficiency.
        spec = ModelSpec(
            alternatives=TWO_ALTS,
            parameters=(ParameterDef("b_tt_a"), ParameterDef("b_tt_b")),
            utilities={
                "car": (),
                "bus": (UtilityTerm("b_tt_a", "tt"), UtilityTerm("b_tt_b", "tt")),
            },
        )
        base = three_mode_data(n_persons=100, seed=25)
        data = Dataset(
            list(TWO_ALTS), base.person_ids, base.obs_ids, np.minimum(base.chosen, 1),
            np.ones((base.n_obs, 2), dtype=bool),
            {name: values[:, :2] for name, values in base.attributes.items()},
            {name: mask[:, :2] for name, mask in base.carried.items()},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = estimate_design(build_design(data, spec))
        assert result.status == "singular_hessian"
        report = result.identification
        assert report is not None
        assert not report.is_identified
        assert report.hessian_rank < 2
        assert {"b_tt_a", "b_tt_b"} & set(report.suspect_parameters)

    def test_separated_data_warns_of_divergence(self):
        # The chosen alternative is always the faster one: b_tt runs to -inf.
        rng = np.random.default_rng(3)
        observations = []
        for i in range(40):
            tt = rng.uniform(5.0, 60.0, size=2)
            observations.append(
                (
                    f"p{i}", f"o{i}", int(np.argmin(tt)), (True, True),
                    ({"tt": float(tt[0])}, {"tt": float(tt[1])}),
                )
            )
        data = hand_dataset(TWO_ALTS, observations)
        spec = ModelSpec(
            alternatives=TWO_ALTS,
            parameters=(ParameterDef("b_tt"),),
            utilities={"car": (UtilityTerm("b_tt", "tt"),),
                       "bus": (UtilityTerm("b_tt", "tt"),)},
        )
        with pytest.warns(DivergenceWarning):
            result = estimate_design(build_design(data, spec))
        assert abs(result.params_hat[0]) > 50.0

    def test_identification_report_on_well_posed_problem(self):
        data = three_mode_data(n_persons=200, seed=26)
        result = estimate_design(build_design(data, three_mode_spec()))
        report = check_identification(result.hessian_at_optimum, names=result.names)
        assert report.is_identified
        assert report.hessian_rank == 4
        assert report.suspect_parameters == ()
        assert np.isfinite(report.condition_number)


class TestIdentificationRule:
    """check_identification at the edges of its 1e-10 eigenvalue ratio."""

    NAMES = ["a", "b"]

    @pytest.mark.parametrize(
        "largest, small, identified",
        [
            (1.0, 2e-10, True),
            (3.0, 3.0 * 1e-10, False),
            (1.0, 0.5e-10, False),
        ],
    )
    def test_ratio_boundary(self, largest, small, identified):
        report = check_identification(-np.diag([largest, small]), names=self.NAMES)
        assert report.is_identified is identified
        assert report.hessian_rank == (2 if identified else 1)
        assert report.condition_number == pytest.approx(largest / small, rel=1e-12)
        assert report.suspect_parameters == (() if identified else ("b",))

    def test_zero_matrix_has_rank_zero_and_every_suspect(self):
        report = check_identification(np.zeros((2, 2)), names=self.NAMES)
        assert report.is_identified is False
        assert report.hessian_rank == 0
        assert report.condition_number == np.inf
        assert report.suspect_parameters == ("a", "b")


class TestMultiStart:
    def test_runs_are_seeded_and_best_is_max(self):
        data = three_mode_data(n_persons=150, seed=27)
        best, runs = multi_start(build_design(data, three_mode_spec()), n_starts=4, seed=123)
        assert len(runs) == 4
        assert [r.start_index for r in runs] == [0, 1, 2, 3]
        assert best.ll_hat == max(r.ll_hat for r in runs if r.converged)
        # A concave likelihood sends every start to the same optimum.
        for r in runs:
            if r.converged:
                np.testing.assert_allclose(r.params_hat, best.params_hat, atol=1e-5)

    def test_multi_start_is_reproducible(self):
        data = three_mode_data(n_persons=80, seed=28)
        design = build_design(data, three_mode_spec())
        best_a, runs_a = multi_start(design, n_starts=3, seed=77)
        best_b, runs_b = multi_start(design, n_starts=3, seed=77)
        np.testing.assert_array_equal(best_a.params_hat, best_b.params_hat)
        for ra, rb in zip(runs_a, runs_b):
            np.testing.assert_array_equal(ra.params_hat, rb.params_hat)

    def test_at_least_one_start(self):
        design = build_design(three_mode_data(n_persons=30, seed=29), three_mode_spec())
        with pytest.raises(ValueError, match="n_starts must be >= 1, got 0"):
            multi_start(design, n_starts=0)

    def test_no_converged_start_returns_the_highest_log_likelihood_run(self, monkeypatch):
        data = three_mode_data(n_persons=100, seed=29)
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-13)
        best, runs = multi_start(build_design(data, three_mode_spec()), n_starts=3)
        assert [r.start_index for r in runs] == [0, 1, 2]
        assert [r.status for r in runs] == ["max_iterations"] * 3
        assert best.status == "max_iterations" and not best.converged
        assert best.ll_hat == max(r.ll_hat for r in runs)
        assert best is runs[best.start_index]

    def test_a_converged_start_beats_a_higher_unconverged_one(self, monkeypatch):
        import choicestats.estimation as est

        data = three_mode_data(n_persons=30, seed=30)
        real = est.estimate_design
        outcomes = iter((("converged", -100.0), ("max_iterations", -90.0)))

        def fake(design, start=None):
            result = real(design, start=design.start_values)
            result.status, result.ll_hat = next(outcomes)
            return result

        monkeypatch.setattr(est, "estimate_design", fake)
        best, runs = est.multi_start(build_design(data, three_mode_spec()), n_starts=2)
        assert best is runs[0] and best.ll_hat == -100.0

    def test_disagreeing_optima_warn(self, monkeypatch):
        # Force two fake converged runs with log-likelihoods 1e-3 apart.
        import choicestats.estimation as est

        data = three_mode_data(n_persons=30, seed=30)
        real = est.estimate_design
        lls = iter((-100.0, -100.001))

        def fake(design, start=None):
            result = real(design, start=design.start_values)
            object.__setattr__(result, "ll_hat", next(lls))
            return result

        monkeypatch.setattr(est, "estimate_design", fake)
        with pytest.warns(EstimationDisagreementWarning):
            est.multi_start(build_design(data, three_mode_spec()), n_starts=2)


class TestHeldParameters:
    """A fit holding parameters at their start values is the fit of the
    model with those parameters fixed, and it keeps the full derivatives."""

    @pytest.mark.parametrize("name, value", [("b_cost", 0.0), ("b_tt", -0.03), ("asc_bus", 0.4)])
    def test_a_held_fit_equals_the_fit_with_the_parameter_fixed(self, name, value):
        data = three_mode_data(n_persons=300, obs_per_person=2, seed=41)
        spec = three_mode_spec()
        design = build_design(data, spec)
        col = design.free_names.index(name)
        start = design.start_values.copy()
        start[col] = value
        held = estimate_design(design, start=start, hold=(col,))
        fixed = estimate_design(build_design(data, spec.with_fixed(name, value)))
        assert held.converged and fixed.converged
        assert held.params_hat[col].tobytes() == np.float64(value).tobytes()
        assert_close_rel(np.delete(held.params_hat, col), fixed.params_hat, 1e-10, "estimate")
        assert_close_rel(held.ll_hat, fixed.ll_hat, 1e-10, "ll_hat")

    def test_a_held_fit_keeps_the_full_derivatives_at_its_estimate(self):
        design = build_design(three_mode_data(n_persons=300, seed=42), three_mode_spec())
        col = design.free_names.index("b_cost")
        held = estimate_design(design, hold=(col,))
        ll, gradient, hessian, _ = design.evaluate(held.params_hat)
        assert held.ll_hat == ll
        assert held.gradient.tobytes() == gradient.tobytes()
        assert held.hessian_at_optimum.tobytes() == hessian.tobytes()
        # The gradient test reads the free entries only; the held one is the LM score.
        free = np.delete(gradient, col)
        assert held.gradient_norm == np.abs(free).max() <= estimation_module.GRADIENT_TOLERANCE
        assert abs(gradient[col]) > 1.0


class _FourIdentityBhhhDesign:
    # The BHHH fallback gets 4 I, so its direction is gradient / 4.
    def bhhh(self, params):
        return 4.0 * np.eye(2)


class TestNewtonStep:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6), scale=st.sampled_from([1e-6, 1.0, 1e4]))
    def test_direction_equals_the_checked_solve(self, data, k, scale):
        # -H = A A' as DesignArrays.derivatives would return it: symmetrised
        # by (h + h') / 2, which makes it bitwise symmetric.
        entries = st.floats(-10.0, 10.0, allow_nan=False)
        a = np.array(data.draw(st.lists(entries, min_size=k * (k + 2), max_size=k * (k + 2))))
        gradient = np.array(data.draw(st.lists(entries, min_size=k, max_size=k)))
        h = -scale * (a.reshape(k, k + 2) @ a.reshape(k, k + 2).T)
        h = (h + h.T) / 2.0
        try:
            expected = solve_positive_definite(-h, gradient, name="negative hessian")
        except IdentificationError:
            assume(False)
        got, newton = estimation_module._ascent_direction(None, None, gradient, h)
        assert got.tobytes() == expected.tobytes() and newton

    @pytest.mark.parametrize(
        "eigenvalues, newton",
        [
            ((1.0, 2e-12), True),
            ((1.0, 0.5e-12), False),
            ((3.0, 1e-12 * 3.0), False),
            ((1.0, -1.0), False),
            ((0.0, 0.0), False),
            ((-1.0, -2.0), False),
        ],
    )
    def test_eigenvalue_rule_picks_newton_or_bhhh(self, eigenvalues, newton):
        hessian = -np.diag(eigenvalues)
        gradient = np.array([1.0, 2.0])
        direction, kind = estimation_module._ascent_direction(_FourIdentityBhhhDesign(), None, gradient, hessian)
        expected = gradient / np.array(eigenvalues) if newton else gradient / 4.0
        np.testing.assert_allclose(direction, expected, rtol=1e-12)
        assert kind == newton

    def test_bhhh_fallback_is_cut_to_the_free_block(self):
        class Design:
            def bhhh(self, params):
                return np.diag([4.0, 5.0, 6.0])

        block = np.ix_([0, 2], [0, 2])
        gradient = np.array([1.0, 2.0])
        direction, newton = estimation_module._ascent_direction(Design(), None, gradient, np.eye(2), block)
        np.testing.assert_array_equal(direction, [1.0 / 4.0, 2.0 / 6.0])
        assert not newton

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_hessian_raises(self, bad):
        hessian = -np.eye(2)
        hessian[0, 1] = hessian[1, 0] = bad
        with pytest.raises(ValueError, match="^negative hessian contains non-finite entries$"):
            estimation_module._ascent_direction(_FourIdentityBhhhDesign(), None, np.ones(2), hessian)
