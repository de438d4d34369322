"""Release gate: eleven end-to-end checks, one test per criterion.

Criteria 1-5 are arithmetic fixtures that need no data: they recompute
derived columns of the frozen reference table (t ratios, interval limits,
width ratios, asymmetry indices, p values), the lognormal interval anchors,
the prediction-gain figures, and the chi-square anchors. Criteria 6-10 are
property suites on the package's own simulator: derivative agreement,
parameter recovery, covariance agreement, test size, interval coverage, and
large-sample convergence of the three nested tests. Criterion 11 reruns the
seeded command-line workflows and requires byte-identical result files at
every --jobs setting.

Each criterion is a single test function, so `pytest -v` reports one
pass/fail line per criterion. Tolerances are stated inline next to each
assertion; none are loosened for convenience. Fixture-derived checks carry
the tolerance that survives the four-significant-digit rounding of the
stored inputs, and each named anchor value is also asserted exactly.
"""

import numpy as np
import pytest

import reference_values as rv
from choicestats import (
    AttributeRule,
    ExperimentConfig,
    GeneratorSpec,
    ModelSpec,
    ParameterDef,
    UtilityTerm,
    asymmetry_index,
    asymptotic_ci,
    bootstrap_covariance,
    bootstrap_run,
    build_design,
    chisq_cdf,
    chisq_sf,
    coverage_experiment,
    covariance_set,
    estimate_design,
    hpd_interval,
    prediction_gain,
    quantile_interval,
    simulate_dataset,
    size_and_power_experiment,
    t_test,
)
from choicestats.cli import main
from choicestats.dataio import write_json
from choicestats.inference import normal_quantile
from choicestats.reporting import format_significant
from testtools import (
    GRADIENT_RTOL,
    HESSIAN_RTOL,
    THREE_MODE_TRUE,
    binary_spec,
    fd_gradient,
    fd_hessian,
    three_mode_data,
    three_mode_generator,
    three_mode_spec,
)

Z_95 = normal_quantile(0.975)


def ulp4(x):
    """One unit in the fourth significant digit of x."""
    return 10.0 ** (np.floor(np.log10(abs(x))) - 3.0)


def five_param_spec():
    # Three alternatives, five coefficients: two constants, generic time and
    # cost, and a waiting-time coefficient that only bus and rail carry.
    return ModelSpec(
        alternatives=("car", "bus", "rail"),
        parameters=(
            ParameterDef("asc_bus", start=0.0),
            ParameterDef("asc_rail", start=0.0),
            ParameterDef("b_tt", start=-0.05, alternative="less"),
            ParameterDef("b_cost", start=-0.1, alternative="less"),
            ParameterDef("b_wait", start=-0.05, alternative="less"),
        ),
        utilities={
            "car": (UtilityTerm("b_tt", "tt"), UtilityTerm("b_cost", "cost")),
            "bus": (
                UtilityTerm("asc_bus", "_const"),
                UtilityTerm("b_tt", "tt"),
                UtilityTerm("b_cost", "cost"),
                UtilityTerm("b_wait", "wait"),
            ),
            "rail": (
                UtilityTerm("asc_rail", "_const"),
                UtilityTerm("b_tt", "tt"),
                UtilityTerm("b_cost", "cost"),
                UtilityTerm("b_wait", "wait"),
            ),
        },
    )


def five_param_generator():
    return GeneratorSpec(
        attributes=(
            AttributeRule("tt", dist="uniform", low=5.0, high=60.0),
            AttributeRule("cost", dist="uniform", low=1.0, high=12.0),
            AttributeRule("wait", dist="uniform", low=2.0, high=15.0,
                          alternatives=("bus", "rail")),
        )
    )


FIVE_PARAM_TRUE = {
    "asc_bus": 0.5, "asc_rail": 0.2,
    "b_tt": -0.05, "b_cost": -0.15, "b_wait": -0.08,
}


def classical_covariances(design, result):
    return covariance_set(
        design.evaluate(result.params_hat)[2],
        design.score(result.params_hat),
        names=result.names,
    )


def test_criterion_01_reported_table_arithmetic():
    """Every derived column of the 14-row reference table is recomputable.

    The stored estimates and standard errors are four-significant-digit
    roundings, so each recomputed quantity is compared at the tolerance that
    rounding can introduce: +/-0.01 for t ratios, width ratios, and asymmetry
    indices; for interval limits, half an ulp4 of each rounded input
    propagated through the interval formula.
    """
    n = len(rv.PARAM_NAMES)
    for columns in (rv.BETA_HAT, rv.SE_CLASSICAL, rv.SE_ROBUST, rv.T_CLASSICAL,
                    rv.CI_CLASSICAL_LOWER, rv.CI_CLASSICAL_UPPER,
                    rv.WIDTH_RATIO_ROBUST_CLASSICAL, rv.ASYMMETRY_HPD):
        assert len(columns) == n == 14

    # t ratios from (estimate, se) pairs, all three uncertainty columns.
    for ses, refs in ((rv.SE_CLASSICAL, rv.T_CLASSICAL),
                      (rv.SE_ROBUST, rv.T_ROBUST),
                      (rv.SE_BOOTSTRAP, rv.T_BOOTSTRAP)):
        for name, b, s, t_ref in zip(rv.PARAM_NAMES, rv.BETA_HAT, ses, refs):
            assert abs(b / s - t_ref) <= 0.01, f"t ratio for {name}"
    i = rv.PARAM_NAMES.index("b_cost")
    assert round(rv.BETA_HAT[i] / rv.SE_CLASSICAL[i], 2) == -13.61

    # 95% interval limits from the same pairs, to four significant digits.
    for ses, lows, ups in ((rv.SE_CLASSICAL, rv.CI_CLASSICAL_LOWER, rv.CI_CLASSICAL_UPPER),
                           (rv.SE_ROBUST, rv.CI_ROBUST_LOWER, rv.CI_ROBUST_UPPER)):
        for name, b, s, lo, hi in zip(rv.PARAM_NAMES, rv.BETA_HAT, ses, lows, ups):
            ci = asymptotic_ci(b, s, 0.95)
            slack = 0.51 * (ulp4(b) + Z_95 * ulp4(s))
            assert abs(ci.lower - lo) <= 0.51 * ulp4(lo) + slack, f"lower limit for {name}"
            assert abs(ci.upper - hi) <= 0.51 * ulp4(hi) + slack, f"upper limit for {name}"
    ci = asymptotic_ci(rv.BETA_HAT[i], rv.SE_CLASSICAL[i], 0.95)
    assert format_significant(ci.lower, 4) == "-0.2551"
    assert format_significant(ci.upper, 4) == "-0.1909"

    # Interval width ratios between uncertainty treatments.
    w_classical = [2.0 * Z_95 * s for s in rv.SE_CLASSICAL]
    w_robust = [2.0 * Z_95 * s for s in rv.SE_ROBUST]
    w_quantile = [u - l for l, u in zip(rv.CI_BOOT_QUANTILE_LOWER, rv.CI_BOOT_QUANTILE_UPPER)]
    w_hpd = [u - l for l, u in zip(rv.CI_HPD_LOWER, rv.CI_HPD_UPPER)]
    for nums, dens, refs in ((w_robust, w_classical, rv.WIDTH_RATIO_ROBUST_CLASSICAL),
                             (w_quantile, w_robust, rv.WIDTH_RATIO_BOOT_ROBUST),
                             (w_hpd, w_quantile, rv.WIDTH_RATIO_HPD_QUANTILE)):
        for name, num, den, ref in zip(rv.PARAM_NAMES, nums, dens, refs):
            assert abs(num / den - ref) <= 0.01, f"width ratio for {name}"
    j = rv.PARAM_NAMES.index("b_ovt_bus")
    assert round(w_robust[j] / w_classical[j], 2) == 6.02

    # Asymmetry indices from (lower, estimate, upper) triplets.
    for lows, ups, refs in ((rv.CI_BOOT_QUANTILE_LOWER, rv.CI_BOOT_QUANTILE_UPPER,
                             rv.ASYMMETRY_BOOT_QUANTILE),
                            (rv.CI_HPD_LOWER, rv.CI_HPD_UPPER, rv.ASYMMETRY_HPD)):
        for name, lo, m, hi, ref in zip(rv.PARAM_NAMES, lows, rv.BETA_HAT, ups, refs):
            assert abs(asymmetry_index(lo, m, hi) - ref) <= 0.01, f"asymmetry for {name}"
    boot_cost = asymmetry_index(
        rv.CI_BOOT_QUANTILE_LOWER[i], rv.BETA_HAT[i], rv.CI_BOOT_QUANTILE_UPPER[i]
    )
    assert abs(boot_cost - (-0.14)) <= 0.01
    k = rv.PARAM_NAMES.index("asc_bus")
    hpd_bus = asymmetry_index(rv.CI_HPD_LOWER[k], rv.BETA_HAT[k], rv.CI_HPD_UPPER[k])
    assert abs(hpd_bus - 0.11) <= 0.01


def test_criterion_02_one_and_two_sided_p_fixtures():
    """The three insignificant coefficients reproduce both p columns."""
    directions = {"asc_rail": "less", "asc_walk": "greater", "b_tt_taxi": "less"}
    for name, (p_one_ref, p_two_ref) in rv.P_CLASSICAL_PAIRS.items():
        i = rv.PARAM_NAMES.index(name)
        b, s = rv.BETA_HAT[i], rv.SE_CLASSICAL[i]
        p_one = t_test(b, s, 0.0, directions[name]).p_value
        p_two = t_test(b, s, 0.0, "two_sided").p_value
        assert abs(p_one - p_one_ref) <= 0.001, f"one-sided p for {name}"
        assert abs(p_two - p_two_ref) <= 0.001, f"two-sided p for {name}"
    i = rv.PARAM_NAMES.index("asc_rail")
    assert round(rv.BETA_HAT[i] / rv.SE_CLASSICAL[i], 2) == -1.54


def test_criterion_03_lognormal_interval_anchors():
    """A million lognormal(0, 1) draws hit the published interval anchors."""
    rng = np.random.default_rng(7)
    draws = np.exp(rng.normal(0.0, 1.0, size=1_000_000))
    q = quantile_interval(draws, 0.95, 1.0)
    assert abs(q.lower - 0.14) <= 0.03
    assert abs(q.upper - 7.10) <= 0.03
    h = hpd_interval(draws, 0.95, 1.0)
    assert abs(h.lower - 0.03) <= 0.03
    assert abs(h.upper - 5.18) <= 0.03
    # The density is right-skewed, so the narrowest interval sits left of the
    # equal-tail one and is never wider.
    assert h.upper - h.lower <= q.upper - q.lower
    assert h.lower < q.lower


def test_criterion_04_prediction_gain_figures():
    gain_1000, capped = prediction_gain(4.0, 1000, 0.60)
    assert not capped
    assert f"{gain_1000:.4f}" == "0.6024"
    gain_5000, capped = prediction_gain(4.0, 5000, 0.60)
    assert not capped
    assert f"{gain_5000:.4f}" == "0.6005"


def test_criterion_05_chi_square_anchors():
    assert chisq_sf(8.0, 1) < 0.01
    assert abs(chisq_cdf(3.8415, 1) - 0.95) <= 1e-4


def test_criterion_06_derivative_oracle_suite():
    """Analytic score and Hessian match central differences everywhere tried.

    Twenty random parameter points on each of three simulated datasets of
    different shapes (2, 4, and 5 coefficients).
    """
    designs = (
        build_design(
            simulate_dataset(binary_spec(), {"asc_bus": 0.3, "b_tt": -0.04},
                             three_mode_generator(), n_persons=200,
                             obs_per_person=1, seed=41),
            binary_spec()),
        build_design(three_mode_data(n_persons=150, obs_per_person=2, seed=42),
                     three_mode_spec()),
        build_design(
            simulate_dataset(five_param_spec(), FIVE_PARAM_TRUE,
                             five_param_generator(), n_persons=150,
                             obs_per_person=1, seed=43),
            five_param_spec()),
    )
    for d, design in enumerate(designs):
        rng = np.random.default_rng(100 + d)
        for point in range(20):
            params = rng.normal(scale=0.3, size=design.k)
            grad_gap = np.abs(design.evaluate(params)[1] - fd_gradient(design, params))
            grad_ref = np.maximum(1.0, np.abs(fd_gradient(design, params)))
            assert np.all(grad_gap <= GRADIENT_RTOL * grad_ref), (
                f"gradient mismatch, dataset {d}, point {point}"
            )
            hess_gap = np.abs(design.evaluate(params)[2] - fd_hessian(design, params))
            hess_ref = np.maximum(1.0, np.abs(fd_hessian(design, params)))
            assert np.all(hess_gap <= HESSIAN_RTOL * hess_ref), (
                f"hessian mismatch, dataset {d}, point {point}"
            )


def test_criterion_07_parameter_recovery():
    """100 seeded fits at n=5000: estimates stay within 3 classical SEs."""
    spec = five_param_spec()
    gen = five_param_generator()
    names = spec.free_names()
    star = np.array([FIVE_PARAM_TRUE[name] for name in names])
    within = np.zeros(len(names), dtype=int)
    n_converged = 0
    for run in range(100):
        data = simulate_dataset(spec, FIVE_PARAM_TRUE, gen, n_persons=5000,
                                obs_per_person=1, seed=1000 + run)
        design = build_design(data, spec)
        result = estimate_design(design)
        if not result.converged:
            continue
        n_converged += 1
        se = classical_covariances(design, result).se_classical
        within += (np.abs(result.params_hat - star) <= 3.0 * se).astype(int)
    assert n_converged >= 99
    for k, name in enumerate(names):
        assert within[k] >= 95, f"{name}: only {within[k]}/100 within 3 SEs"


def test_criterion_08_covariance_agreement():
    """The three covariance estimates agree when the model is true, and the
    robust one tracks the bootstrap when it is not.

    Part one uses a design whose information matrix has no near-zero
    entries (a shared attribute under two coefficients), so the element-wise
    relative gap is meaningful everywhere. Part two breaks the independence
    assumption with per-person taste heterogeneity on a five-wave panel.
    """
    spec = ModelSpec(
        alternatives=("car", "bus"),
        parameters=(
            ParameterDef("asc_bus", start=0.0),
            ParameterDef("b_tt", start=-0.02, alternative="less"),
            ParameterDef("b_bus_tt", start=-0.01, alternative="less"),
        ),
        utilities={
            "car": (UtilityTerm("b_tt", "tt"),),
            "bus": (
                UtilityTerm("asc_bus", "_const"),
                UtilityTerm("b_tt", "tt"),
                UtilityTerm("b_bus_tt", "tt"),
            ),
        },
    )
    gen = GeneratorSpec(
        attributes=(AttributeRule("tt", dist="uniform", low=10.0, high=50.0),)
    )
    true = {"asc_bus": 0.8, "b_tt": -0.02, "b_bus_tt": -0.015}
    data = simulate_dataset(spec, true, gen, n_persons=20000,
                            obs_per_person=1, seed=60)
    design = build_design(data, spec)
    result = estimate_design(design)
    assert result.converged
    covs = classical_covariances(design, result)
    reference = np.abs(covs.classical)
    for a, b in ((covs.bhhh, covs.classical), (covs.robust, covs.classical),
                 (covs.bhhh, covs.robust)):
        assert float(np.max(np.abs(a - b) / reference)) < 0.2

    # Misspecified panel: the fitted model ignores the heterogeneity, so only
    # the person-grouped robust and bootstrap uncertainties are trustworthy,
    # and they must agree with each other.
    panel = three_mode_data(n_persons=800, obs_per_person=5, seed=31,
                            heterogeneity={"b_tt": 0.02})
    design = build_design(panel, three_mode_spec())
    result = estimate_design(design)
    assert result.converged
    se_robust = classical_covariances(design, result).se_robust
    boot = bootstrap_run(design, s_samples=400, base_seed=217, jobs=4)
    assert boot.n_failed == 0
    se_boot = np.sqrt(np.diag(bootstrap_covariance(boot)))
    assert np.all(np.abs(se_robust - se_boot) / se_boot < 0.25)


def test_criterion_09_size_and_coverage():
    """Null rejection rate near the nominal 5%, interval coverage near 95%."""
    size_config = ExperimentConfig(
        spec=three_mode_spec(),
        generator=three_mode_generator(),
        true_params=dict(THREE_MODE_TRUE),
        n_persons=1000,
        obs_per_person=1,
        replications=1000,
        alpha=0.05,
        target_parameter="b_cost",
        effect_sizes=(0.0,),
        seed=101,
    )
    size_report = size_and_power_experiment(size_config, jobs=4)
    assert size_report.failures == 0
    assert 0.03 <= size_report.rate("t_classical_one", 0.0) <= 0.07

    coverage_config = ExperimentConfig(
        spec=three_mode_spec(),
        generator=three_mode_generator(),
        true_params=dict(THREE_MODE_TRUE),
        n_persons=1000,
        obs_per_person=1,
        replications=500,
        alpha=0.05,
        target_parameter="b_cost",
        ci_level=0.95,
        seed=202,
    )
    coverage_report = coverage_experiment(coverage_config, jobs=4)
    assert coverage_report.failures == 0
    assert 0.92 <= coverage_report.rate("classical") <= 0.98


def test_criterion_10_nested_test_convergence():
    """At n=5000 the likelihood-ratio, Wald, and score tests coincide."""
    config = ExperimentConfig(
        spec=three_mode_spec(),
        generator=three_mode_generator(),
        true_params=dict(THREE_MODE_TRUE),
        n_persons=5000,
        obs_per_person=1,
        replications=100,
        alpha=0.05,
        target_parameter="b_cost",
        effect_sizes=(0.0,),
        seed=303,
    )
    report = size_and_power_experiment(config, jobs=4)
    rows = [row for row in report.rows if row["converged"]]
    assert len(rows) == 100
    gaps_wald = [abs(row["p_lr"] - row["p_wald"]) for row in rows]
    gaps_lm = [abs(row["p_lr"] - row["p_lm"]) for row in rows]
    assert float(np.median(gaps_wald)) < 0.02
    assert float(np.median(gaps_lm)) < 0.02
    agree = sum(
        (row["p_lr"] < 0.05) == (row["p_wald"] < 0.05) == (row["p_lm"] < 0.05)
        for row in rows
    )
    assert agree >= 95


@pytest.fixture(scope="module")
def workflow_inputs(tmp_path_factory):
    from choicestats import save_dataset, save_model_spec

    root = tmp_path_factory.mktemp("acceptance_inputs")
    save_dataset(three_mode_data(n_persons=300, obs_per_person=1, seed=21),
                 root / "data.csv")
    save_model_spec(three_mode_spec(), root / "spec.json")

    config = ExperimentConfig(
        spec=three_mode_spec(),
        generator=three_mode_generator(),
        true_params=dict(THREE_MODE_TRUE),
        n_persons=60,
        obs_per_person=1,
        replications=50,
        alpha=0.05,
        target_parameter="b_cost",
        effect_sizes=(0.0,),
        seed=17,
    )
    size_doc = config.to_dict()
    size_doc["experiment"] = "size_power"
    write_json(size_doc, root / "mc_size.json")

    coverage_doc = config.to_dict()
    coverage_doc["experiment"] = "coverage"
    coverage_doc["n_persons"] = 40
    coverage_doc["bootstrap_s"] = 10
    del coverage_doc["effect_sizes"]
    write_json(coverage_doc, root / "mc_coverage.json")
    return root


def test_criterion_11_seeded_reruns_are_byte_identical(workflow_inputs, tmp_path, capsys):
    """Rerunning any seeded command reproduces its result files exactly.

    Worker count must not matter either: bootstrap and experiment runs are
    compared across --jobs settings. The manifest is the one file excluded
    from the comparison; it records the wall-clock time of each run.
    """
    def run(name, argv):
        outdir = tmp_path / name
        assert main([*argv, "--out", str(outdir)]) == 0, name
        capsys.readouterr()
        return outdir

    def files(outdir, *names):
        return [(outdir / n).read_bytes() for n in names]

    estimate_argv = [
        "estimate",
        "--data", str(workflow_inputs / "data.csv"),
        "--spec", str(workflow_inputs / "spec.json"),
        "--se", "--t",
    ]
    first = run("est1", estimate_argv)
    second = run("est2", estimate_argv)
    result_files = ("results.json", "table.txt")
    assert files(first, *result_files) == files(second, *result_files)

    rerendered = run("rerender", [
        "report", "--results", str(first / "results.json"), "--se", "--t",
    ])
    assert (rerendered / "table.txt").read_bytes() == (first / "table.txt").read_bytes()

    boot_argv = [
        "bootstrap",
        "--data", str(workflow_inputs / "data.csv"),
        "--spec", str(workflow_inputs / "spec.json"),
        "--S", "30", "--seed", "9",
    ]
    boot_files = ("draws.csv", "results.json")
    baseline = files(run("boot_j1", [*boot_argv, "--jobs", "1"]), *boot_files)
    for jobs in ("2", "5"):
        assert files(run(f"boot_j{jobs}", [*boot_argv, "--jobs", jobs]), *boot_files) == baseline
    assert files(run("boot_rerun", [*boot_argv, "--jobs", "1"]), *boot_files) == baseline

    mc_files = ("report.json", "replications.csv")
    for config_name in ("mc_size.json", "mc_coverage.json"):
        mc_argv = ["montecarlo", "--config", str(workflow_inputs / config_name)]
        stem = config_name.removesuffix(".json")
        baseline = files(run(f"{stem}_j1", [*mc_argv, "--jobs", "1"]), *mc_files)
        for jobs in ("3", "5"):
            assert files(run(f"{stem}_j{jobs}", [*mc_argv, "--jobs", jobs]), *mc_files) == baseline
        assert files(run(f"{stem}_rerun", [*mc_argv, "--jobs", "1"]), *mc_files) == baseline
