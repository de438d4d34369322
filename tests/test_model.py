"""Probability core, derivatives against finite differences, simulation."""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choicestats import (
    AttributeRule,
    DesignArrays,
    GeneratorSpec,
    IdentificationRiskWarning,
    ModelSpec,
    ParameterDef,
    SpecMismatchError,
    UtilityTerm,
    build_design,
    estimate_design,
    simulate_dataset,
    simulate_designs,
)
from choicestats.model import PROBABILITY_FLOOR
from testtools import (
    GRADIENT_RTOL,
    HESSIAN_RTOL,
    THREE_MODE_TRUE,
    assert_close_rel,
    binary_spec,
    concat_take_persons,
    einsum_evaluate,
    fd_gradient,
    fd_hessian,
    hand_dataset,
    loop_compile,
    observation_scores,
    same_data,
    take_observations,
    three_mode_data,
    three_mode_generator,
    three_mode_spec,
)


def _obs(alts, person, obs, chosen, avail, attrs):
    # Helper: name-keyed inputs to the positional observation layout.
    return (
        person,
        obs,
        alts.index(chosen),
        tuple(avail[a] for a in alts),
        tuple(attrs[a] for a in alts),
    )


THREE_ALTS = ("car", "bus", "rail")
TWO_ALTS = ("car", "bus")


def small_dataset():
    # Three alternatives; the second observation has rail unavailable.
    observations = [
        _obs(THREE_ALTS, "p1", "p1.1", "car", {"car": True, "bus": True, "rail": True},
             {"car": {"tt": 20.0, "cost": 4.0}, "bus": {"tt": 35.0, "cost": 2.0},
              "rail": {"tt": 25.0, "cost": 3.0}}),
        _obs(THREE_ALTS, "p1", "p1.2", "bus", {"car": True, "bus": True, "rail": False},
             {"car": {"tt": 15.0, "cost": 4.5}, "bus": {"tt": 30.0, "cost": 2.0},
              "rail": {}}),
        _obs(THREE_ALTS, "p2", "p2.1", "rail", {"car": True, "bus": True, "rail": True},
             {"car": {"tt": 40.0, "cost": 6.0}, "bus": {"tt": 50.0, "cost": 2.5},
              "rail": {"tt": 30.0, "cost": 3.5}}),
    ]
    return hand_dataset(list(THREE_ALTS), observations)


class TestProbabilities:
    def test_unavailable_probability_is_exactly_zero(self):
        design = build_design(small_dataset(), three_mode_spec())
        p = design.probabilities(design.start_values)
        assert p[1, 2] == 0.0

    def test_available_probabilities_sum_to_one(self):
        design = build_design(small_dataset(), three_mode_spec())
        p = design.probabilities(np.array([0.4, -0.2, -0.08, -0.3]))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_equal_utilities_split_evenly(self):
        design = build_design(small_dataset(), three_mode_spec())
        p = design.probabilities(np.zeros(4))
        # With all coefficients zero, utilities are equal among available.
        np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(p[1], [0.5, 0.5, 0.0], atol=1e-15)

    def test_huge_utilities_stay_finite(self):
        # Max subtraction keeps exp() in range even for extreme coefficients.
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", {"car": True, "bus": True},
                     {"car": {"tt": 10.0}, "bus": {"tt": 900.0}}),
            ],
        )
        design = build_design(data, binary_spec())
        p = design.probabilities(np.array([0.3, -40.0]))
        assert np.isfinite(p).all()
        assert p[0, 0] == 1.0 and p[0, 1] == 0.0

    def test_binary_closed_form_probability(self):
        # Two alternatives: p(bus) = 1 / (1 + exp(-(asc + b*(tt_bus - tt_car)))).
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "bus", {"car": True, "bus": True},
                     {"car": {"tt": 10.0}, "bus": {"tt": 18.0}}),
            ],
        )
        design = build_design(data, binary_spec())
        asc, b = 0.7, -0.11
        p = design.probabilities(np.array([asc, b]))
        expected = 1.0 / (1.0 + np.exp(-(asc + b * (18.0 - 10.0))))
        np.testing.assert_allclose(p[0, 1], expected, rtol=1e-15)


class TestLogLikelihood:
    def test_log_likelihood_matches_sum_of_log_probabilities(self):
        design = build_design(small_dataset(), three_mode_spec())
        params = np.array([0.4, -0.2, -0.08, -0.3])
        p = design.probabilities(params)
        chosen_p = p[np.arange(3), design.chosen]
        np.testing.assert_allclose(
            design.log_likelihood(params), np.log(chosen_p).sum(), rtol=1e-14
        )

    def test_null_log_likelihood_counts_available_alternatives(self):
        design = build_design(small_dataset(), three_mode_spec())
        expected = -(np.log(3) + np.log(2) + np.log(3))
        np.testing.assert_allclose(design.null_log_likelihood(), expected, rtol=1e-15)

    def test_underflow_floors_and_warns(self):
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "bus", {"car": True, "bus": True},
                     {"car": {"tt": 0.0}, "bus": {"tt": 2000.0}}),
            ],
        )
        design = build_design(data, binary_spec())
        ll, _, _, floored = design.evaluate(np.array([0.0, -1.0]))
        assert floored
        assert ll == pytest.approx(np.log(1e-300))


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        data = three_mode_data(n_persons=60, obs_per_person=2, seed=5)
        design = build_design(data, three_mode_spec())
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = rng.normal(scale=0.3, size=4)
            assert_close_rel(
                design.evaluate(params)[1], fd_gradient(design, params),
                GRADIENT_RTOL, "gradient",
            )

    def test_hessian_matches_finite_differences(self):
        data = three_mode_data(n_persons=60, obs_per_person=2, seed=6)
        design = build_design(data, three_mode_spec())
        rng = np.random.default_rng(12)
        for _ in range(5):
            params = rng.normal(scale=0.3, size=4)
            assert_close_rel(
                design.evaluate(params)[2], fd_hessian(design, params),
                HESSIAN_RTOL, "hessian",
            )

    def test_hessian_is_negative_semidefinite(self):
        data = three_mode_data(n_persons=80, seed=7)
        design = build_design(data, three_mode_spec())
        h = design.evaluate(np.array([0.3, 0.1, -0.04, -0.1]))[2]
        eigenvalues = np.linalg.eigvalsh(h)
        assert (eigenvalues <= 1e-10).all()

    def test_hessian_is_accurate_for_attributes_with_a_large_common_mean(self):
        # Travel times in [10000, 10060]: the uncentred form sum p x x' -
        # xbar xbar' cancels about 1e8 against a spread of about 300 per
        # entry, which the centred form does not. Checked at the MLE against
        # an extended-precision evaluation of the same formula; the uncentred
        # form misses by about 1e-10 of the largest entry.
        generator = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="uniform", low=10000.0, high=10060.0),
                AttributeRule("cost", dist="uniform", low=1.0, high=12.0),
            )
        )
        design = simulate_designs(
            three_mode_spec(), [THREE_MODE_TRUE], generator, n_persons=1000, obs_per_person=1, seed=4
        )[0]
        result = estimate_design(design)
        assert result.converged
        params = result.params_hat
        X = design.X.astype(np.longdouble)
        v = X @ params.astype(np.longdouble) + design.offset
        p = np.exp(v - v.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        centred = X - np.einsum("nj,njk->nk", p, X)[:, None, :]
        want = -np.einsum("nj,nja,njb->ab", p, centred, centred)
        got = design.evaluate(params)[2]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_score_rows_sum_to_gradient(self):
        data = three_mode_data(n_persons=50, obs_per_person=3, seed=8)
        design = build_design(data, three_mode_spec())
        params = np.array([0.2, -0.1, -0.05, -0.2])
        rows = observation_scores(design, params)
        np.testing.assert_allclose(rows.sum(axis=0), design.evaluate(params)[1], rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n_persons=st.integers(1, 12),
        obs_per_person=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        params=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
    )
    def test_evaluate_agrees_with_the_single_quantity_methods(
        self, n_persons, obs_per_person, seed, params
    ):
        # Coefficients up to 50 drive some chosen probabilities below the floor.
        design = build_design(three_mode_data(n_persons, obs_per_person, seed), three_mode_spec())
        params = np.array(params)
        ll, gradient, _, floored = design.evaluate(params)
        assert ll == design.log_likelihood(params)
        p_chosen = design.probabilities(params)[np.arange(design.n_obs), design.chosen]
        assert floored == bool(np.any(p_chosen < PROBABILITY_FLOOR))
        np.testing.assert_allclose(
            gradient, observation_scores(design, params).sum(axis=0), rtol=1e-12
        )

    def test_person_grouping_sums_observation_rows(self):
        data = three_mode_data(n_persons=40, obs_per_person=3, seed=9)
        design = build_design(data, three_mode_spec())
        params = np.array([0.2, -0.1, -0.05, -0.2])
        by_obs = observation_scores(design, params)
        by_person = design.score(params)
        assert by_person.shape == (40, 4)
        np.testing.assert_allclose(by_person.sum(axis=0), by_obs.sum(axis=0), rtol=1e-12)
        # First person's block of observation rows adds up to its person row.
        first = design.person_index == 0
        np.testing.assert_allclose(by_obs[first].sum(axis=0), by_person[0], rtol=1e-12)


# Small seeded panels and parameter points for the design-path properties.
_panel_cases = given(
    n_persons=st.integers(1, 12),
    obs_per_person=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    params=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
)


def _ll_grad_hess(design, params):
    return design.evaluate(params)[:3]


class TestDesignSurgery:
    @settings(max_examples=25, deadline=None)
    @_panel_cases
    def test_taking_every_person_once_reproduces_the_design(
        self, n_persons, obs_per_person, seed, params
    ):
        design = build_design(three_mode_data(n_persons, obs_per_person, seed), three_mode_spec())
        params = np.array(params)
        taken = design.weighted(np.ones(n_persons))
        for got, want in zip(_ll_grad_hess(taken, params), _ll_grad_hess(design, params)):
            np.testing.assert_array_equal(got, want)
        assert taken.bhhh(params).tobytes() == design.bhhh(params).tobytes()
        assert taken.null_log_likelihood() == design.null_log_likelihood()

    @settings(max_examples=25, deadline=None)
    @_panel_cases
    def test_taking_every_person_twice_doubles_the_design(
        self, n_persons, obs_per_person, seed, params
    ):
        design = build_design(three_mode_data(n_persons, obs_per_person, seed), three_mode_spec())
        params = np.array(params)
        doubled = design.weighted(np.full(n_persons, 2.0))
        for got, want in zip(_ll_grad_hess(doubled, params), _ll_grad_hess(design, params)):
            np.testing.assert_allclose(got, 2.0 * np.asarray(want), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_weighted_replicate_matches_the_per_person_concatenation(self, data):
        # A resample drawing person p m times is the design with weight m on
        # p: same ll, gradient, Hessian and BHHH matrix as the m copies laid
        # out one person at a time, and the persons of weight 0 are dropped.
        _, _, design = _random_case(data, st.floats(-3.0, 3.0), 8, 3)
        person = st.integers(0, design.n_persons - 1)
        order = data.draw(st.lists(person, min_size=1, max_size=2 * design.n_persons))
        counts = np.bincount(order, minlength=design.n_persons)
        replicate = design.weighted(counts)
        copies = DesignArrays(
            **concat_take_persons(design, order),
            free_names=design.free_names,
            start_values=design.start_values,
            person_weights=np.ones(len(order)),
        )
        assert replicate.n_persons == np.count_nonzero(counts)
        assert replicate.person_weights.tolist() == counts[counts > 0].tolist()
        coefficient = st.floats(-1.0, 1.0)
        params = np.array(data.draw(st.lists(coefficient, min_size=design.k, max_size=design.k)))

        ll, gradient, hessian, floored = replicate.evaluate(params)
        want_ll, want_gradient, want_hessian, want_floored = copies.evaluate(params)
        assert floored == want_floored
        # The floors of TestKernelReference: the two sum the same terms in
        # another order.
        np.testing.assert_allclose(ll, want_ll, rtol=1e-12, atol=1e-12 * copies.n_obs)
        terms = np.maximum(np.abs(want_gradient), np.abs(copies.X).sum(axis=(0, 1)))
        assert np.all(np.abs(gradient - want_gradient) <= 1e-12 * terms)
        assert np.all(np.abs(hessian - want_hessian) <= 1e-12 * np.abs(want_hessian).max())
        want_bhhh = copies.bhhh(params)
        assert np.all(np.abs(replicate.bhhh(params) - want_bhhh) <= 1e-12 * np.abs(want_bhhh).max())
        want_null = copies.null_log_likelihood()
        assert replicate.null_log_likelihood() == pytest.approx(want_null, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_person_scores_equal_the_add_at_reference(self, data):
        _, _, design = _random_case(data, st.floats(-1e3, 1e3, allow_nan=False), 12, 4)
        coefficient = st.floats(-1.0, 1.0)
        params = np.array(data.draw(st.lists(coefficient, min_size=design.k, max_size=design.k)))
        want = np.zeros((design.n_persons, design.k))
        np.add.at(want, design.person_index, observation_scores(design, params))
        assert design.score(params).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_person_terms_equal_the_score_and_the_add_at_information(self, data):
        # Unavailable alternatives leave holes; weights must not enter the
        # rows, only the weighted sum that makes the Hessian.
        _, _, design = _random_case(data, st.floats(-3.0, 3.0), 8, 3)
        if data.draw(st.booleans()):
            counts = st.lists(st.integers(0, 3), min_size=design.n_persons, max_size=design.n_persons)
            design = design.weighted(np.array(data.draw(counts.filter(any))))
        coefficient = st.floats(-1.0, 1.0)
        params = np.array(data.draw(st.lists(coefficient, min_size=design.k, max_size=design.k)))
        k = design.k

        terms = design.person_terms(design.probabilities(params), information=True)
        assert terms.shape == (design.n_persons, k + k * k)
        assert terms[:, :k].tobytes() == design.score(params).tobytes()
        p, x = design.probabilities(params), design.X
        centred = x - np.einsum("nj,njk->nk", p, x)[:, None, :]
        rows = np.einsum("nj,nja,njb->nab", p, centred, centred).reshape(design.n_obs, -1)
        want = np.zeros((design.n_persons, k * k))
        np.add.at(want, design.person_index, rows)
        assert terms[:, k:].tobytes() == want.tobytes()
        hessian = design.derivatives(design.probabilities(params))[1]
        information = (design.person_weights @ terms[:, k:]).reshape(k, k)
        assert np.all(np.abs(information + hessian) <= 1e-12 * np.abs(hessian).max())


class TestSpecValidation:
    def test_duplicate_parameter_name_rejected(self):
        with pytest.raises(SpecMismatchError):
            ModelSpec(
                alternatives=("a", "b"),
                parameters=(ParameterDef("x"), ParameterDef("x")),
                utilities={"a": (), "b": (UtilityTerm("x", "_const"),)},
            ).validate()

    def test_unknown_parameter_in_utilities_rejected(self):
        with pytest.raises(SpecMismatchError):
            ModelSpec(
                alternatives=("a", "b"),
                parameters=(ParameterDef("x"),),
                utilities={"a": (), "b": (UtilityTerm("y", "_const"),)},
            ).validate()

    def test_unknown_alternative_in_utilities_rejected(self):
        with pytest.raises(SpecMismatchError):
            ModelSpec(
                alternatives=("a", "b"),
                parameters=(ParameterDef("x"),),
                utilities={"a": (), "c": (UtilityTerm("x", "_const"),)},
            ).validate()

    def test_constant_in_every_alternative_warns(self):
        spec = ModelSpec(
            alternatives=("a", "b"),
            parameters=(ParameterDef("x"), ParameterDef("y")),
            utilities={
                "a": (UtilityTerm("x", "_const"),),
                "b": (UtilityTerm("y", "_const"),),
            },
        )
        with pytest.warns(IdentificationRiskWarning):
            spec.validate()

    def test_with_fixed_freezes_a_parameter(self):
        spec = three_mode_spec()
        fixed = spec.with_fixed("b_cost", -0.2)
        assert fixed.k == 3
        assert "b_cost" not in fixed.free_names()
        assert fixed.parameter("b_cost").fixed_value == -0.2

    def test_missing_attribute_for_available_alternative_rejected(self):
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", {"car": True, "bus": True},
                     {"car": {"tt": 10.0}, "bus": {}}),
            ],
        )
        with pytest.raises(SpecMismatchError, match="missing"):
            build_design(data, binary_spec())

    def test_infinite_attribute_for_available_alternative_rejected(self):
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", {"car": True, "bus": True},
                     {"car": {"tt": 10.0}, "bus": {"tt": np.inf}}),
            ],
        )
        with pytest.raises(SpecMismatchError, match="'tt' is not finite for alternative 'bus'"):
            build_design(data, binary_spec())

    def test_first_offending_observation_is_named(self):
        avail = {"car": True, "bus": True}
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", avail, {"car": {"tt": 1.0}, "bus": {"tt": 2.0}}),
                _obs(TWO_ALTS, "p1", "o2", "car", avail, {"car": {"tt": 1.0}, "bus": {"tt": np.nan}}),
                _obs(TWO_ALTS, "p2", "o3", "car", avail, {"car": {}, "bus": {"tt": 2.0}}),
            ],
        )
        with pytest.raises(SpecMismatchError, match="^observation 'o2': attribute 'tt' is not finite"):
            build_design(data, binary_spec())

    def test_attribute_absent_on_unavailable_alternative_compiles_to_zeros(self):
        # small_dataset's second observation has rail unavailable and no rail
        # attributes; a fixed coefficient's offset must stay zero there too.
        design = build_design(small_dataset(), three_mode_spec().with_fixed("b_cost", -0.2))
        assert not design.avail[1, 2]
        assert np.all(design.X[1, 2] == 0.0)
        assert design.offset[1, 2] == 0.0
        assert design.offset[0, 2] == -0.2 * 3.0


def _random_case(data, value, max_obs=6, n_persons=2, min_obs=1):
    """(dataset, spec, design): random terms over a constant and two
    attributes, an optional fixed coefficient, unavailable alternatives
    carrying no attributes, and persons whose observations interleave."""
    alts = ("a", "b", "c")
    names = ("p0", "p1", "p2")
    fixed = data.draw(st.sampled_from((None, "p1")))
    term = st.builds(UtilityTerm, st.sampled_from(names), st.sampled_from(("_const", "x", "y")))
    spec = ModelSpec(
        alternatives=alts,
        parameters=[
            ParameterDef(name, fixed=name == fixed, fixed_value=-0.7) for name in names
        ],
        utilities={alt: data.draw(st.lists(term, max_size=4)) for alt in alts},
    )
    observations = []
    for i in range(data.draw(st.integers(min_obs, max_obs))):
        avail = data.draw(st.lists(st.booleans(), min_size=3, max_size=3).filter(any))
        chosen = data.draw(st.sampled_from([j for j, ok in enumerate(avail) if ok]))
        observations.append((
            f"p{i % n_persons}",
            f"o{i}",
            chosen,
            tuple(avail),
            tuple({"x": data.draw(value), "y": data.draw(value)} if ok else {} for ok in avail),
        ))
    dataset = hand_dataset(list(alts), observations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IdentificationRiskWarning)
        design = build_design(dataset, spec)
    return dataset, spec, design


class TestKernelReference:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_matches_the_einsum_kernel(self, data):
        # Attributes and coefficients keep utility gaps below 25, so no
        # probability is so small that rounding in its neighbours' terms
        # outweighs its own Hessian contribution.
        dataset, spec, design = _random_case(data, st.floats(-3.0, 3.0), 8, 3)
        surgery = data.draw(st.sampled_from(("none", "weighted", "with_fixed")))
        if surgery == "weighted":
            counts = st.lists(st.integers(0, 3), min_size=design.n_persons, max_size=design.n_persons)
            design = design.weighted(np.array(data.draw(counts)))
        elif surgery == "with_fixed" and design.k > 1:
            # A second fixed coefficient moves one more column into the offset.
            name = data.draw(st.sampled_from(design.free_names))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IdentificationRiskWarning)
                design = build_design(dataset, spec.with_fixed(name, data.draw(st.floats(-1.0, 1.0))))
        coefficient = st.floats(-1.0, 1.0)
        params = np.array(data.draw(st.lists(coefficient, min_size=design.k, max_size=design.k)))

        ll, gradient, hessian, floored = design.evaluate(params)
        want_ll, want_gradient, want_hessian, want_floored = einsum_evaluate(design, params)
        assert floored == want_floored
        # Relative to the summands, not only to the sum: a component that
        # cancels to 1e-8 from terms of order 1 keeps only their absolute
        # rounding (seen: 5.6e-17 on a gradient of 9.6e-9).
        np.testing.assert_allclose(ll, want_ll, rtol=1e-12, atol=1e-12 * design.n_obs)
        terms = np.maximum(np.abs(want_gradient), np.abs(design.X).sum(axis=(0, 1)))
        assert np.all(np.abs(gradient - want_gradient) <= 1e-12 * terms)
        assert np.all(np.abs(hessian - want_hessian) <= 1e-12 * np.abs(want_hessian).max())


class TestBuildDesign:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_loop_reference_bit_for_bit(self, data):
        dataset, spec, design = _random_case(data, st.floats(-1e3, 1e3, allow_nan=False))
        X, offset = loop_compile(dataset, spec)
        assert design.X.tobytes() == X.tobytes()
        assert design.offset.tobytes() == offset.tobytes()


class TestReorderingInvariance:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permutations_leave_the_fit_unchanged(self, data):
        # Permuted alternatives (dataset and specification alike), persons,
        # or observations sum the same terms in another order. Rounding of
        # about 1e-16 per term in a gradient of up to 40 terms moves a Newton
        # step by that much times the inverse Hessian, so fits whose
        # information matrix has an eigenvalue below 0.01 are left out
        # (seen: a gap of 2e-10 in the estimates at 20 observations, most of
        # them with one available alternative).
        dataset, spec, design = _random_case(data, st.floats(-3.0, 3.0), 40, 4, min_obs=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = estimate_design(design)
        assume(base.converged and np.linalg.eigvalsh(-base.hessian_at_optimum).min() > 0.01)

        alternatives = data.draw(st.permutations(spec.alternatives))
        rank = {pid: r for r, pid in enumerate(data.draw(st.permutations(dataset.persons())))}
        by_person = sorted(range(dataset.n_obs), key=lambda i: rank[dataset.person_ids[i]])
        shuffled = data.draw(st.permutations(range(dataset.n_obs)))
        cases = {
            "alternatives": (
                dataset.reordered(alternatives),
                ModelSpec(alternatives, spec.parameters, spec.utilities),
            ),
            "persons": (take_observations(dataset, by_person), spec),
            "observations": (take_observations(dataset, shuffled), spec),
        }
        for kind, (permuted, permuted_spec) in cases.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = estimate_design(build_design(permuted, permuted_spec))
            assert result.status == base.status, kind
            assert_close_rel(result.ll_hat, base.ll_hat, 1e-10, f"{kind} ll_hat")
            assert_close_rel(result.params_hat, base.params_hat, 1e-10, f"{kind} estimates")


class TestDatasetValidation:
    def test_chosen_must_be_available(self):
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "bus", {"car": True, "bus": False},
                     {"car": {"tt": 10.0}, "bus": {"tt": 12.0}}),
            ],
        )
        with pytest.raises(SpecMismatchError):
            data.validate()

    def test_no_available_alternative_rejected(self):
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", {"car": False, "bus": False},
                     {"car": {}, "bus": {}}),
            ],
        )
        with pytest.raises(SpecMismatchError):
            data.validate()

    def test_duplicate_observation_ids_rejected(self):
        rows = {"car": {"tt": 1.0}, "bus": {"tt": 2.0}}
        avail = {"car": True, "bus": True}
        data = hand_dataset(
            list(TWO_ALTS),
            [
                _obs(TWO_ALTS, "p1", "o1", "car", avail, rows),
                _obs(TWO_ALTS, "p1", "o1", "bus", avail, rows),
            ],
        )
        with pytest.raises(SpecMismatchError):
            data.validate()

    def test_persons_listed_in_first_appearance_order(self):
        data = three_mode_data(n_persons=5, obs_per_person=2, seed=4)
        assert data.persons() == [f"p{i:06d}" for i in range(1, 6)]


def _valid_rows(n=5):
    # Binary observations that pass validation; tests break some of them.
    return [[f"p{i % 2}", f"o{i}", 0, (True, True), ({"tt": 1.0}, {"tt": 2.0})] for i in range(n)]


def _validation_message(rows):
    with pytest.raises(SpecMismatchError) as excinfo:
        hand_dataset(TWO_ALTS, rows).validate()
    return str(excinfo.value)


class TestDatasetValidationMessages:
    """Each message names the first offending observation; within one
    observation the checks run in the order of these tests."""

    def test_no_observations(self):
        assert _validation_message([]) == "dataset contains no observations"

    def test_misaligned_columns(self):
        data = hand_dataset(TWO_ALTS, _valid_rows(4))
        data.person_ids.pop()
        with pytest.raises(SpecMismatchError) as excinfo:
            data.validate()
        assert str(excinfo.value) == (
            "column person_ids has shape (3,), not (4,) for 4 observations of 2 alternatives"
        )
        data = hand_dataset(TWO_ALTS, _valid_rows(4))
        data.carried["tt"] = data.carried["tt"][:, :1]
        with pytest.raises(SpecMismatchError, match=r"^column carried 'tt' has shape \(4, 1\), not"):
            data.validate()

    def test_duplicate_observation_id(self):
        rows = _valid_rows()
        rows[2][1] = "o1"
        rows[4][1] = "o0"
        assert _validation_message(rows) == "duplicate observation id 'o1'"

    def test_ids_differing_by_a_trailing_nul_are_distinct(self):
        rows = _valid_rows()
        rows[1][1] = "o0\x00"
        data = hand_dataset(TWO_ALTS, rows)
        data.validate()

    def test_no_available_alternative(self):
        rows = _valid_rows()
        rows[1][3] = rows[3][3] = (False, False)
        assert _validation_message(rows) == "observation 'o1' has no available alternative"

    def test_unknown_chosen_alternative(self):
        rows = _valid_rows()
        rows[2][2] = 2
        rows[3][2] = -1
        assert _validation_message(rows) == "observation 'o2' chose an unknown alternative"
        rows[2][2] = 0
        assert _validation_message(rows) == "observation 'o3' chose an unknown alternative"

    def test_unavailable_chosen_alternative(self):
        rows = _valid_rows()
        rows[1][2:4] = rows[3][2:4] = 1, (True, False)
        assert _validation_message(rows) == "observation 'o1' chose unavailable alternative 'bus'"

    def test_first_offending_observation_wins_over_check_order(self):
        rows = _valid_rows()
        rows[1][2:4] = 1, (True, False)
        rows[2][1] = "o0"
        assert _validation_message(rows) == "observation 'o1' chose unavailable alternative 'bus'"

    def test_reordered_to_differing_alternatives(self):
        data = hand_dataset(TWO_ALTS, _valid_rows())
        with pytest.raises(SpecMismatchError) as excinfo:
            data.reordered(["car", "tram"])
        assert str(excinfo.value) == (
            "alternative sets differ: dataset ['car', 'bus'] vs ['car', 'tram']"
        )


class TestSimulation:
    def test_same_seed_same_dataset(self):
        a = three_mode_data(n_persons=15, obs_per_person=2, seed=42)
        b = three_mode_data(n_persons=15, obs_per_person=2, seed=42)
        assert same_data(a, b)

    def test_different_seed_differs(self):
        a = three_mode_data(n_persons=15, seed=42)
        b = three_mode_data(n_persons=15, seed=43)
        assert not same_data(a, b)

    def test_choice_shares_track_model_probabilities(self):
        spec = three_mode_spec()
        data = three_mode_data(n_persons=4000, seed=31)
        design = build_design(data, spec)
        params = np.array([0.5, 0.2, -0.05, -0.15])
        expected_share = design.probabilities(params).mean(axis=0)
        counts = np.bincount(design.chosen, minlength=3) / data.n_obs
        np.testing.assert_allclose(counts, expected_share, atol=0.02)

    def test_heterogeneity_changes_draws(self):
        base = three_mode_data(n_persons=20, seed=13)
        het = three_mode_data(n_persons=20, seed=13, heterogeneity={"b_tt": 0.02})
        assert not same_data(base, het)

    def test_true_params_accepted_by_name_or_position(self):
        spec = three_mode_spec()
        gen = three_mode_generator()
        by_name = simulate_dataset(
            spec, {"asc_bus": 0.5, "asc_rail": 0.2, "b_tt": -0.05, "b_cost": -0.15},
            gen, n_persons=10, obs_per_person=1, seed=3,
        )
        by_position = simulate_dataset(
            spec, (0.5, 0.2, -0.05, -0.15), gen, n_persons=10, obs_per_person=1, seed=3
        )
        assert same_data(by_name, by_position)

    def test_missing_true_parameter_rejected(self):
        with pytest.raises(SpecMismatchError):
            simulate_dataset(
                three_mode_spec(), {"asc_bus": 0.5}, three_mode_generator(),
                n_persons=5, obs_per_person=1, seed=1,
            )

    def test_constant_attribute_on_free_parameter_warns(self):
        from choicestats import AttributeRule, GeneratorSpec

        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="constant", value=10.0),
                AttributeRule("cost", dist="uniform", low=1.0, high=5.0),
            )
        )
        with pytest.warns(IdentificationRiskWarning):
            simulate_dataset(
                three_mode_spec(), THREE_MODE_TRUE_COPY, gen,
                n_persons=5, obs_per_person=1, seed=1,
            )

    @pytest.mark.parametrize(
        "simulate, truth",
        [(simulate_dataset, THREE_MODE_TRUE), (simulate_designs, [THREE_MODE_TRUE])],
        ids=["simulate_dataset", "simulate_designs"],
    )
    def test_constant_attribute_warning_names_the_caller(self, simulate, truth):
        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="constant", value=10.0),
                AttributeRule("cost", dist="uniform", low=1.0, high=5.0),
            )
        )
        with pytest.warns(IdentificationRiskWarning) as caught:
            simulate(three_mode_spec(), truth, gen, n_persons=5, obs_per_person=1, seed=1)
        assert [w.filename for w in caught] == [__file__]

    def test_same_attribute_split_across_alternatives_merges(self):
        from choicestats import AttributeRule, GeneratorSpec

        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="uniform", low=5.0, high=10.0,
                              alternatives=("car",)),
                AttributeRule("tt", dist="uniform", low=40.0, high=50.0,
                              alternatives=("bus", "rail")),
                AttributeRule("cost", dist="uniform", low=1.0, high=5.0),
            )
        )
        data = simulate_dataset(
            three_mode_spec(), THREE_MODE_TRUE_COPY, gen,
            n_persons=30, obs_per_person=1, seed=7,
        )
        tt = data.attributes["tt"]
        assert np.all((5.0 <= tt[:, 0]) & (tt[:, 0] <= 10.0))
        assert np.all((40.0 <= tt[:, 1]) & (tt[:, 1] <= 50.0))
        assert np.all((40.0 <= tt[:, 2]) & (tt[:, 2] <= 50.0))

    def test_same_attribute_overlapping_alternatives_rejected(self):
        from choicestats import AttributeRule, GeneratorSpec

        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="uniform", low=5.0, high=10.0,
                              alternatives=("car", "bus")),
                AttributeRule("tt", dist="uniform", low=40.0, high=50.0,
                              alternatives=("bus",)),
                AttributeRule("cost", dist="uniform", low=1.0, high=5.0),
            )
        )
        with pytest.raises(SpecMismatchError, match="more than once"):
            simulate_dataset(
                three_mode_spec(), THREE_MODE_TRUE_COPY, gen,
                n_persons=5, obs_per_person=1, seed=1,
            )

    def test_attribute_not_drawn_for_a_referencing_alternative_rejected(self):
        # cost would otherwise enter rail's utility as zero: a silently wrong draw.
        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="uniform", low=5.0, high=60.0),
                AttributeRule("cost", dist="uniform", low=1.0, high=12.0,
                              alternatives=("car", "bus")),
            )
        )
        with pytest.raises(SpecMismatchError, match="alternative 'rail' references attribute 'cost'"):
            simulate_designs(
                three_mode_spec(), [THREE_MODE_TRUE_COPY], gen,
                n_persons=5, obs_per_person=1, seed=1,
            )[0]

    @pytest.mark.parametrize(
        "rule, draw",
        [
            (AttributeRule("x", dist="normal", mean=2.0, sd=0.5), lambda rng, size: rng.normal(2.0, 0.5, size)),
            (AttributeRule("x", dist="uniform", low=-1.0, high=3.0), lambda rng, size: rng.uniform(-1.0, 3.0, size)),
            (
                AttributeRule("x", dist="lognormal", mean=0.3, sd=0.2),
                lambda rng, size: rng.lognormal(0.3, 0.2, size),
            ),
            (AttributeRule("x", dist="constant", value=2.5), lambda rng, size: np.full(size, 2.5)),
        ],
        ids=["normal", "uniform", "lognormal", "constant"],
    )
    def test_each_distribution_draws_as_its_generator_method(self, rule, draw):
        # The rule draws first from the seed's stream; its attribute enters no utility.
        gen = GeneratorSpec(attributes=(rule, *three_mode_generator().attributes))
        data = simulate_dataset(
            three_mode_spec(), THREE_MODE_TRUE_COPY, gen, n_persons=20, obs_per_person=2, seed=5
        )
        np.testing.assert_array_equal(data.attributes["x"], draw(np.random.default_rng(5), (40, 3)))


THREE_MODE_TRUE_COPY = {"asc_bus": 0.5, "asc_rail": 0.2, "b_tt": -0.05, "b_cost": -0.15}


def _wait_spec(fixed):
    # three_mode_spec plus a wait-time coefficient on bus and rail only.
    base = three_mode_spec()
    spec = ModelSpec(
        alternatives=base.alternatives,
        parameters=[*base.parameters, ParameterDef("b_wait", start=-0.1)],
        utilities={
            alt: [*terms, UtilityTerm("b_wait", "wait")] if alt != "car" else terms
            for alt, terms in base.utilities.items()
        },
    )
    return spec.with_fixed(fixed, -0.1) if fixed else spec


class TestSimulateDesign:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_persons=st.integers(1, 25),
        obs_per_person=st.integers(1, 4),
        tt_sd=st.sampled_from([0.0, 0.03]),
        fixed=st.sampled_from([None, "b_cost", "b_wait"]),
        split_tt=st.booleans(),
    )
    def test_equals_compiled_simulated_dataset(
        self, seed, n_persons, obs_per_person, tt_sd, fixed, split_tt
    ):
        spec = _wait_spec(fixed)
        tt = (
            (AttributeRule("tt", dist="uniform", low=5.0, high=20.0, alternatives=("car",)),
             AttributeRule("tt", dist="lognormal", mean=3.0, sd=0.4, alternatives=("bus", "rail")))
            if split_tt
            else (AttributeRule("tt", dist="uniform", low=5.0, high=60.0),)
        )
        gen = GeneratorSpec(
            attributes=(
                *tt,
                AttributeRule("cost", dist="normal", mean=6.0, sd=2.0),
                AttributeRule("wait", dist="uniform", low=0.0, high=15.0, alternatives=("bus", "rail")),
                AttributeRule("noise", dist="constant", value=2.5, alternatives=("car",)),
            ),
            heterogeneity={"b_tt": tt_sd} if tt_sd else {},
        )
        true = {**THREE_MODE_TRUE_COPY, "b_wait": -0.08}
        args = (spec, true, gen, n_persons, obs_per_person, seed)

        direct = simulate_designs(spec, [true], *args[2:])[0]
        compiled = build_design(simulate_dataset(*args), spec)
        for name in ("X", "offset", "avail", "chosen", "person_index", "start_values"):
            a, b = getattr(direct, name), getattr(compiled, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert direct.person_weights.tobytes() == compiled.person_weights.tobytes()
        assert direct.free_names == compiled.free_names
        # Nothing derived from the arrays at construction is left stale.
        params = np.array([true[name] for name in direct.free_names])
        got, want = direct.evaluate(params), compiled.evaluate(params)
        assert (got[0], got[3]) == (want[0], want[3])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_persons=st.integers(1, 25),
        obs_per_person=st.sampled_from([1, 3]),
        tt_sd=st.sampled_from([0.0, 0.03]),
        fixed=st.sampled_from([None, "b_cost"]),
        cost_shifts=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3),
    )
    def test_simulate_designs_equals_one_simulation_per_truth(
        self, seed, n_persons, obs_per_person, tt_sd, fixed, cost_shifts
    ):
        # Truths that differ in one coefficient, as a size/power replication's
        # effects do, and in the alternative-specific constant of another.
        spec = _wait_spec(fixed)
        gen = GeneratorSpec(
            attributes=(
                AttributeRule("tt", dist="uniform", low=5.0, high=20.0, alternatives=("car",)),
                AttributeRule("tt", dist="lognormal", mean=3.0, sd=0.4, alternatives=("bus", "rail")),
                AttributeRule("cost", dist="normal", mean=6.0, sd=2.0),
                AttributeRule("wait", dist="uniform", low=0.0, high=15.0, alternatives=("bus", "rail")),
            ),
            heterogeneity={"b_tt": tt_sd} if tt_sd else {},
        )
        base = {**THREE_MODE_TRUE_COPY, "b_wait": -0.08}
        truths = [
            [{**base, "b_cost": base["b_cost"] + shift, "asc_bus": base["asc_bus"] - shift}[name] for name in spec.free_names()]
            for shift in cost_shifts
        ]
        designs = simulate_designs(spec, truths, gen, n_persons, obs_per_person, seed)
        assert len(designs) == len(truths)
        for design, truth in zip(designs, truths):
            alone = simulate_designs(spec, [truth], gen, n_persons, obs_per_person, seed)[0]
            for name in ("X", "offset", "avail", "chosen", "person_index"):
                a, b = getattr(design, name), getattr(alone, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert design.person_weights.tobytes() == alone.person_weights.tobytes()
        for name in ("X", "offset", "avail"):
            assert not getattr(designs[0], name).flags.writeable, name
            assert all(np.shares_memory(getattr(designs[0], name), getattr(d, name)) for d in designs), name


def _pinned_case(case):
    spec, gen, true, obs_per_person = three_mode_spec(), three_mode_generator(), THREE_MODE_TRUE, 1
    if case == "heterogeneity":
        gen = GeneratorSpec(attributes=gen.attributes, heterogeneity={"b_tt": 0.03})
    elif case == "restricted":
        spec = _wait_spec(None)
        wait = AttributeRule("wait", dist="uniform", low=0.0, high=15.0, alternatives=("bus", "rail"))
        gen = GeneratorSpec(attributes=(*gen.attributes, wait))
        true = {**THREE_MODE_TRUE, "b_wait": -0.08}
    elif case == "panel":
        obs_per_person = 3
    return spec, true, gen, 400, obs_per_person


# sha256 of (chosen, X) bytes of a one-truth simulation, recorded before the
# simulator's utilities and draws moved to alternative-major arrays.
SIMULATOR_DIGESTS = {
    ("plain", 1): (
        "c1bb4cbc2616fbef9bdc340fbed2bf0433a9f1a977dee895dba39b00e741f2e5",
        "ef3686bef70b3b46058211b4e89a78e64cd9ac6f478d343452c9951c426cc425",
    ),
    ("plain", 2): (
        "3cdd8b98c06ee2c60521b3d60d28ca96d0a3aa2c78584a336f3c801267923a32",
        "1e6b0ddd451748c8299d57b758a228ce62cfaaa9ee695ca5ac09b0618e06d3de",
    ),
    ("plain", 3): (
        "2e6979b2417dab9ed295011359eee403d062fc4e8d947ffd96d2901bafedbfe3",
        "a2a94e82aa99d48d9405752b97c818ec8079b7b460ecffa5c522716ac25f7843",
    ),
    ("heterogeneity", 1): (
        "a44cab1e8110fcd427565e203589b4c58a6993d57d09dd25f3ca140e3204a228",
        "ef3686bef70b3b46058211b4e89a78e64cd9ac6f478d343452c9951c426cc425",
    ),
    ("heterogeneity", 2): (
        "95589fb556ec51e326933f8e2dd3e86238317b73bf54abb5139e2210147e9dee",
        "1e6b0ddd451748c8299d57b758a228ce62cfaaa9ee695ca5ac09b0618e06d3de",
    ),
    ("heterogeneity", 3): (
        "02940e8e3e226a73be6191433dd285b65a1841c4eeb4df88fd14c487fad69586",
        "a2a94e82aa99d48d9405752b97c818ec8079b7b460ecffa5c522716ac25f7843",
    ),
    ("restricted", 1): (
        "0cd70a058cebdfea2dc3ae27b67b7c250a7651d59e8d5ac1b501fcd77d1da3c8",
        "655833d5f654f6ed5e737164ed5122fb04f8cdbfaa87cb8d3d19396e93d693e3",
    ),
    ("restricted", 2): (
        "6906bc8cc4ac7e281100a55dd0331475112a5a28b4f5ba472834ac7ca4690996",
        "f6ae712968934518cdcc01677aff3fff27638be37e1865945767e30b371c08d3",
    ),
    ("restricted", 3): (
        "1bd89657932d060e319e96f1d2d54339ae3370d28727d5b01fdb0b9148b951a7",
        "7f2c08042df54630758556102e9c254b96a679c4b473a36e6c7e8e77aa68e735",
    ),
    ("panel", 1): (
        "6c802337c61d8721eb99554eb1ed81925afd9c2a349e4358acc9e30bffcf66a0",
        "24756c2ebc1ab2fcd36e15fdaffea9fcb94f900b0c83c5d53545cbba47f08365",
    ),
    ("panel", 2): (
        "6ce2006060add297f1211b0bee272d60d8f748e13759696cf2cc77a6abc9f12d",
        "17aba1311e9939e8cc72b4b42d72cd3ccf1404f8b6579b88211bd6d4343f062b",
    ),
    ("panel", 3): (
        "821ab1a03b429211fea8b75f4db48c1f76bbe2b8e08c625049483011d381e17a",
        "708f31a98f2726fc7379be77163b368e92d18f769b82a6ed99dbaea2c2023c39",
    ),
}


@pytest.mark.parametrize("case, seed", sorted(SIMULATOR_DIGESTS))
def test_simulator_draws_are_pinned(case, seed):
    spec, true, gen, n_persons, obs_per_person = _pinned_case(case)
    design = simulate_designs(spec, [true], gen, n_persons, obs_per_person, seed)[0]
    assert (design.chosen.dtype, design.X.dtype) == (np.int64, np.float64)
    digests = tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (design.chosen, design.X)
    )
    assert digests == SIMULATOR_DIGESTS[case, seed]
