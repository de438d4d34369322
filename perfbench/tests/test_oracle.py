import math

import numpy as np
import pytest

import inputs
import oracle


def _constants_only(counts):
    """Choices with alternative-specific constants only: MLE is log(n_j / n_0)."""
    chosen = np.repeat(np.arange(len(counts)), counts)
    n, j = chosen.size, len(counts)
    X = np.zeros((n, j, j - 1))
    for alt in range(1, j):
        X[:, alt, alt - 1] = 1.0
    return X, chosen, np.arange(n)


def test_binary_constant_has_closed_form_optimum_and_se():
    X, chosen, person = _constants_only([30, 70])
    fit = oracle.fit(X, chosen, person)
    share = 0.7
    assert fit.params[0] == pytest.approx(math.log(70 / 30), abs=1e-10)
    assert fit.se_classical[0] == pytest.approx(1.0 / math.sqrt(100 * share * (1 - share)), rel=1e-9)
    assert fit.ll == pytest.approx(30 * math.log(0.3) + 70 * math.log(0.7), rel=1e-12)


def test_three_constants_match_log_share_ratios():
    X, chosen, person = _constants_only([50, 20, 30])
    fit = oracle.fit(X, chosen, person)
    np.testing.assert_allclose(fit.params, [math.log(20 / 50), math.log(30 / 50)], atol=1e-9)


def _results_doc(fit, names, scale=1.0, shift=0.0):
    se = {name: float(v) for name, v in zip(names, fit.se_classical)}
    return {
        "status": "converged",
        "estimates": {name: float(v) * scale + shift * se[name] for name, v in zip(names, fit.params)},
        "ll_hat": fit.ll,
        "covariance": {"se": {
            "classical": se,
            "robust": {name: float(v) for name, v in zip(names, fit.se_robust)},
        }},
    }


def test_tolerance_passes_last_bit_changes_and_fails_a_wrong_answer():
    data = inputs.generate(seed=3, n_persons=2000, obs_per_person=1, with_wait=True)
    fit = oracle.fit(*data.design())
    names = data.free_names
    assert oracle.compare_estimate(_results_doc(fit, names), fit, names) == []
    assert oracle.compare_estimate(_results_doc(fit, names, scale=1 + 1e-13), fit, names) == []
    wrong = oracle.compare_estimate(_results_doc(fit, names, shift=0.01), fit, names)
    assert len(wrong) == len(names)
    assert oracle.compare_estimate({"status": "max_iterations"}, fit, names)


def test_generator_is_seeded_and_recovers_its_parameters():
    first = inputs.generate(seed=9, n_persons=4000, obs_per_person=1, with_wait=True)
    again = inputs.generate(seed=9, n_persons=4000, obs_per_person=1, with_wait=True)
    assert first.csv_text() == again.csv_text()
    fit = oracle.fit(*first.design())
    truth = np.array([inputs.FIVE_PARAM_TRUE[name] for name in first.free_names])
    assert np.all(np.abs(fit.params - truth) < 4 * fit.se_classical)


def test_generated_csv_compiles_to_the_oracle_design(tmp_path):
    from choicestats import build_design, load_dataset, load_model_spec

    data = inputs.generate(seed=4, n_persons=50, obs_per_person=3, with_wait=True, heterogeneity_sd=0.02)
    sizes = inputs.write_choice_inputs(data, tmp_path)
    assert sizes == {"csv_rows": 450, "csv_bytes": (tmp_path / "data.csv").stat().st_size}
    design = build_design(load_dataset(tmp_path / "data.csv"), load_model_spec(tmp_path / "spec.json"))
    X, chosen, person = data.design()
    np.testing.assert_array_equal(design.X, X)
    np.testing.assert_array_equal(design.chosen, chosen)
    np.testing.assert_array_equal(design.person_index, person)
