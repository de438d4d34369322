"""Covariance estimators and their relations."""

import warnings
from functools import partial

import numpy as np
import pytest

from choicestats import (
    CovarianceError,
    IdentificationError,
    build_design,
    covariance_set,
    estimate_design,
    standard_errors,
)
from choicestats.linalg import invert_symmetric, require_symmetric, solve_positive_definite
from testtools import observation_scores, three_mode_data, three_mode_spec


def fitted(n_persons=500, obs_per_person=1, seed=33, heterogeneity=None):
    data = three_mode_data(
        n_persons=n_persons, obs_per_person=obs_per_person, seed=seed,
        heterogeneity=heterogeneity,
    )
    design = build_design(data, three_mode_spec())
    result = estimate_design(design)
    assert result.converged
    return result, design


class TestCovarianceSet:
    def test_matrices_are_symmetric_with_positive_diagonals(self):
        result, design = fitted()
        covs = covariance_set(
            result.hessian_at_optimum, design.score(result.params_hat), names=result.names
        )
        for method in ("classical", "bhhh", "robust"):
            m = getattr(covs, method)
            np.testing.assert_array_equal(m, m.T)
            assert (np.diag(m) > 0).all()
            np.testing.assert_array_equal(getattr(covs, f"se_{method}"), np.sqrt(np.diag(m)))

    def test_classical_inverts_negative_hessian(self):
        result, design = fitted(seed=34)
        covs = covariance_set(result.hessian_at_optimum, design.score(result.params_hat))
        identity = covs.classical @ (-result.hessian_at_optimum)
        np.testing.assert_allclose(identity, np.eye(4), atol=1e-8)

    def test_bhhh_inverts_score_outer_product(self):
        result, design = fitted(seed=35)
        scores = design.score(result.params_hat)
        covs = covariance_set(result.hessian_at_optimum, scores)
        np.testing.assert_allclose(
            covs.bhhh @ (scores.T @ scores), np.eye(4), atol=1e-8
        )

    def test_robust_is_the_sandwich(self):
        result, design = fitted(seed=36)
        scores = design.score(result.params_hat)
        covs = covariance_set(result.hessian_at_optimum, scores)
        sandwich = covs.classical @ (scores.T @ scores) @ covs.classical
        np.testing.assert_allclose(covs.robust, 0.5 * (sandwich + sandwich.T), atol=1e-12)

    def test_estimators_agree_when_correctly_specified(self):
        # Information equality: on clean cross-sectional data the three
        # standard-error columns approach each other as N grows.
        result, design = fitted(n_persons=6000, seed=37)
        covs = covariance_set(result.hessian_at_optimum, design.score(result.params_hat))
        for se in (covs.se_bhhh, covs.se_robust):
            gap = np.abs(se - covs.se_classical) / covs.se_classical
            assert gap.max() < 0.05

    def test_panel_heterogeneity_inflates_robust(self):
        # Correlated repeated choices: the sandwich grows, classical does not.
        result, design = fitted(
            n_persons=400, obs_per_person=5, seed=38, heterogeneity={"b_tt": 0.1}
        )
        covs = covariance_set(result.hessian_at_optimum, design.score(result.params_hat))
        assert covs.se_robust[2] > 1.4 * covs.se_classical[2]

    def test_observation_grouping_changes_the_sandwich(self):
        result, design = fitted(n_persons=200, obs_per_person=4, seed=39,
                                heterogeneity={"b_tt": 0.03})
        by_person = covariance_set(result.hessian_at_optimum, design.score(result.params_hat))
        by_obs = covariance_set(
            result.hessian_at_optimum, observation_scores(design, result.params_hat)
        )
        assert not np.allclose(by_person.robust, by_obs.robust)

    def test_shape_mismatch_rejected(self):
        result, design = fitted(seed=40)
        with pytest.raises(ValueError):
            covariance_set(result.hessian_at_optimum, np.zeros((10, 3)))

    def test_singular_hessian_raises_identification_error(self):
        h = -np.array([[1.0, 1.0], [1.0, 1.0]])
        scores = np.random.default_rng(0).normal(size=(20, 2))
        with pytest.raises(IdentificationError):
            covariance_set(h, scores)

    def test_standard_errors_reject_negative_variance(self):
        cov = np.array([[1.0, 0.0], [0.0, -1e-6]])
        with pytest.raises(CovarianceError, match="param_1"):
            standard_errors(cov, names=["param_0", "param_1"])


class TestLinalgHelpers:
    def test_require_symmetric_rejects_asymmetry(self):
        m = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(ValueError):
            require_symmetric(m, name="test matrix")

    def test_require_symmetric_returns_symmetrised_copy(self):
        m = np.array([[1.0, 1e-12], [0.0, 1.0]])
        out = require_symmetric(m, name="test matrix")
        np.testing.assert_array_equal(out, out.T)

    def test_invert_symmetric_matches_numpy_on_nice_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 4.0 * np.eye(4)
        np.testing.assert_allclose(invert_symmetric(m), np.linalg.inv(m), atol=1e-10)

    def test_invert_symmetric_rejects_near_singular(self):
        m = np.diag([1.0, 1e-14])
        with pytest.raises(IdentificationError):
            invert_symmetric(m)

    @pytest.mark.parametrize(
        "eigenvalues, invertible",
        [
            ((1.0, 2e-12), True),
            ((1.0, -2e-12), True),
            ((3.0, 3.0 * 1e-12), False),
            ((1.0, 0.5e-12), False),
            ((0.0, 0.0), False),
        ],
    )
    def test_invert_symmetric_at_the_singular_ratio(self, eigenvalues, invertible):
        # |eigenvalue| ratios at or below 1e-12 are singular, whatever the sign.
        m = np.diag(eigenvalues)
        if invertible:
            np.testing.assert_allclose(invert_symmetric(m), np.diag(1.0 / np.array(eigenvalues)), rtol=1e-12)
        else:
            with pytest.raises(IdentificationError):
                invert_symmetric(m)

    def test_solve_positive_definite_requires_positive_eigenvalues(self):
        m = np.diag([1.0, -1.0])
        with pytest.raises(IdentificationError):
            solve_positive_definite(m, np.ones(2))

    @pytest.mark.parametrize("refuse", [
        partial(solve_positive_definite, rhs=[1.0]), invert_symmetric,
    ], ids=["solve", "invert"])
    def test_a_subnormal_matrix_is_refused_without_overflow(self, refuse):
        # 1 / 1.18e-316 is not a finite float: refused, with no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IdentificationError, match="has no finite reciprocal"):
                refuse([[1.18e-316]])

    def test_solve_positive_definite_solves(self):
        m = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        x = solve_positive_definite(m, rhs)
        np.testing.assert_allclose(m @ x, rhs, atol=1e-12)
