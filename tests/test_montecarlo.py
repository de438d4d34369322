"""Replicated-sampling experiments: size/power, coverage, summaries."""

import csv
import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest

import choicestats.bootstrap as bootstrap_module
import choicestats.estimation as estimation_module
import choicestats.montecarlo as montecarlo_module
from choicestats import (
    MIN_DRAWS,
    REJECTION_METHODS,
    AttributeRule,
    ChoiceStatsError,
    DataError,
    ExperimentConfig,
    GeneratorSpec,
    IdentificationRiskWarning,
    ModelSpec,
    MonteCarloReport,
    ParameterDef,
    ReplicateFailureWarning,
    UtilityTerm,
    coverage_experiment,
    estimate_design,
    sampling_distribution_summary,
    save_dataset,
    save_model_spec,
    save_rows,
    seed_from,
    simulate_dataset,
    simulate_designs,
    size_and_power_experiment,
)
from choicestats.cli import main
from choicestats.dataio import read_json

from testtools import THREE_MODE_TRUE, three_mode_generator, three_mode_spec


def make_config(**overrides):
    base = dict(
        spec=three_mode_spec(),
        generator=three_mode_generator(),
        true_params=dict(THREE_MODE_TRUE),
        n_persons=150,
        obs_per_person=1,
        replications=50,
        alpha=0.05,
        target_parameter="b_cost",
        effect_sizes=(0.0, -0.4),
        ci_level=0.95,
        seed=17,
        bootstrap_s=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid_config_passes(self):
        make_config().validate()

    def test_alpha_zero_is_allowed(self):
        make_config(alpha=0.0).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_parameter": "b_size"},
            {"true_params": {"asc_bus": 0.5}},
            {"alpha": 1.0},
            {"alpha": -0.01},
            {"replications": 49},
            {"ci_level": 1.0},
            {"n_persons": 0},
            {"obs_per_person": 0},
            {"bootstrap_s": -1},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides).validate()

    def test_dict_round_trip(self):
        config = make_config()
        doc = config.to_dict()
        back = ExperimentConfig.from_dict(doc)
        assert back.to_dict() == doc
        assert back.spec == config.spec
        assert back.effect_sizes == config.effect_sizes

    def test_missing_required_keys_named(self):
        doc = make_config().to_dict()
        del doc["spec"]
        del doc["target_parameter"]
        with pytest.raises(ValueError, match="spec.*target_parameter"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "misspell, message",
        [
            (
                lambda doc: doc["generator"]["attributes"][1].update(lo=1.0, hi=12.0),
                r"generator.attributes\[1\] has unknown keys 'hi', 'lo'",
            ),
            (
                lambda doc: doc["generator"].update(heterogenity={"b_tt": 0.02}),
                "generator has unknown key 'heterogenity'",
            ),
            (
                lambda doc: doc.update(replication=doc.pop("replications")),
                "experiment config has unknown key 'replication'",
            ),
        ],
        ids=["rule", "generator", "config"],
    )
    def test_misspelt_key_named(self, misspell, message):
        # Each would otherwise fall back to a default: uniform(0, 1), no
        # heterogeneity, or a missing-key error that hides the typo.
        doc = make_config().to_dict()
        misspell(doc)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    def test_effect_sizes_that_are_not_a_list_are_refused_by_key(self):
        # The string "0" would otherwise be read as the effect sizes [0.0].
        doc = {**make_config().to_dict(), "effect_sizes": "0"}
        with pytest.raises(ValueError, match='effect_sizes must be a list, got "0"'):
            ExperimentConfig.from_dict(doc)

    def test_negative_seed_rejected(self):
        # numpy would refuse it only inside the first replicate.
        with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
            make_config(seed=-2).validate()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(replications=100.7), "replications must be a whole number, got 100.7"),
            (lambda doc: doc.update(obs_per_person=2.5), "obs_per_person must be a whole number, got 2.5"),
            (lambda doc: doc.update(seed=1.9), "seed must be a whole number, got 1.9"),
            (lambda doc: doc.update(n_persons=True), "n_persons must be a whole number, got true"),
            (lambda doc: doc.update(bootstrap_s=0.5), "bootstrap_s must be a whole number, got 0.5"),
            (lambda doc: doc.update(alpha="0.05"), 'alpha must be a number, got "0.05"'),
            (
                lambda doc: doc["generator"]["attributes"][0].update(sd="2"),
                'generator.attributes[0].sd must be a number, got "2"',
            ),
            (lambda doc: doc["true_params"].update(b_tt=True), "true_params.b_tt must be a number, got true"),
            (lambda doc: doc.update(effect_sizes=[False, True]), "effect_sizes[0] must be a number, got false"),
            (
                lambda doc: doc["generator"]["attributes"][1].update(alternatives="bus"),
                'generator.attributes[1].alternatives must be a list, got "bus"',
            ),
        ],
        ids=[
            "replications", "obs_per_person", "seed", "n_persons", "bootstrap_s", "alpha",
            "rule-sd", "true_params", "effect_sizes", "rule-alternatives",
        ],
    )
    def test_a_value_of_the_wrong_type_is_refused_at_its_key_path(self, change, message):
        # Each was once coerced: 100.7 replications ran 100, a bootstrap_s of
        # 0.5 turned the interval off, and "bus" named alternatives 'b', 'u', 's'.
        doc = make_config().to_dict()
        change(doc)
        with pytest.raises(DataError) as excinfo:
            ExperimentConfig.from_dict(doc)
        assert str(excinfo.value) == f"experiment config: {message}"

    def test_experiment_kind_is_an_allowed_key(self):
        doc = {**make_config().to_dict(), "experiment": "coverage"}
        assert ExperimentConfig.from_dict(doc).to_dict() == make_config().to_dict()

    def test_from_dict_fills_defaults(self):
        doc = make_config().to_dict()
        for key in ("obs_per_person", "alpha", "effect_sizes", "ci_level", "seed", "bootstrap_s"):
            del doc[key]
        config = ExperimentConfig.from_dict(doc)
        assert config.obs_per_person == 1
        assert config.alpha == 0.05
        assert config.effect_sizes == ()
        assert config.ci_level == 0.95
        assert config.bootstrap_s == 0


@pytest.fixture(scope="module")
def size_power_report():
    return size_and_power_experiment(make_config(), jobs=1)


@pytest.fixture(scope="module")
def coverage_report():
    return coverage_experiment(make_config(n_persons=200, ci_level=0.9), jobs=2)


class TestSizePower:
    @pytest.fixture
    def report(self, size_power_report):
        return size_power_report

    def test_report_shape(self, report):
        assert isinstance(report, MonteCarloReport)
        assert report.kind == "size_power"
        assert report.replications_run == 50
        assert len(report.rates) == 2 * len(REJECTION_METHODS)
        for record in report.rates:
            assert record["effect"] in (0.0, -0.4)
            assert record["method"] in REJECTION_METHODS
            assert 0.0 <= record["rate"] <= 1.0
            assert record["n"] <= 50
        assert len(report.rows) == 100

    def test_large_effect_rejects_more_than_null(self, report):
        for method in ("t_classical_two", "wald", "lr", "lm"):
            size = report.rate(method, 0.0)
            power = report.rate(method, -0.4)
            assert power > size, method
            assert power > 0.5, method

    def test_size_is_not_wildly_off_nominal(self, report):
        # 50 replications only bounds this loosely; the tight check is an
        # acceptance-level experiment.
        assert report.rate("t_classical_one", 0.0) <= 0.25
        assert report.rate("lr", 0.0) <= 0.25

    def test_reject_flags_recompute_from_p_values(self, report):
        for row in report.rows:
            if not row["converged"]:
                continue
            for method in REJECTION_METHODS:
                assert row[f"reject_{method}"] == (row[f"p_{method}"] < 0.05)

    def test_sampling_summary_per_effect(self, report):
        if report.failures == 0:
            assert set(report.sampling) == {"0.0", "-0.4"}
            for block in report.sampling.values():
                assert set(block) == {"mean", "sd", "normality_gap"}

    def test_rate_accessor_raises_for_unknown(self, report):
        with pytest.raises(KeyError):
            report.rate("anova", 0.0)

    def test_null_rates_do_not_depend_on_other_effects(self, report):
        solo = size_and_power_experiment(
            make_config(effect_sizes=(0.0,)), jobs=1
        )
        for method in REJECTION_METHODS:
            assert solo.rate(method, 0.0) == report.rate(method, 0.0)

    def test_alpha_zero_never_rejects(self):
        report = size_and_power_experiment(
            make_config(alpha=0.0, n_persons=60, effect_sizes=(0.0, -0.4)), jobs=1
        )
        for record in report.rates:
            assert record["rate"] == 0.0

    def test_job_count_does_not_change_rows(self):
        config = make_config(n_persons=60)
        serial = size_and_power_experiment(config, jobs=1)
        parallel = size_and_power_experiment(config, jobs=3)
        assert serial.rows == parallel.rows
        assert serial.rates == parallel.rates

    def test_restricted_fit_holds_the_target_in_the_general_design(self, monkeypatch):
        # The restricted model is the general one with the target fixed at 0:
        # its fit runs on the same design, holding the target at 0, from the
        # general estimate.
        fits = []

        def recording(design, start=None, hold=()):
            result = estimate_design(design, start=start, hold=hold)
            fits.append((design, start, hold, result))
            return result

        monkeypatch.setattr(montecarlo_module, "estimate_design", recording)
        config = make_config(n_persons=60, effect_sizes=(-0.4,))
        montecarlo_module._rep(config, partial(montecarlo_module._size_power_cell, "less"), config.effect_sizes, 1)
        (design, general_start, general_hold, general), (restricted_design, start, hold, restricted) = fits
        names = design.free_names
        target = names.index("b_cost")
        assert general_start == [{**config.true_params, "b_cost": -0.4}[n] for n in names]
        assert (general_hold, hold) == ((), (target,))
        assert restricted_design is design
        np.testing.assert_array_equal(start, np.where(np.arange(design.k) == target, 0.0, general.params_hat))
        assert restricted.params_hat[target] == 0.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failure_fails_only_its_own_cells(self, monkeypatch, jobs):
        # Planted failures: the general fit at effect -0.4 on about half the
        # reps, the restricted fit on about a fifth of the cells, and the
        # whole simulation of rep 7. Each fails its own (rep, effect) cells only;
        # they are counted per cell and tallied per cell by reason.
        config = make_config(n_persons=60)
        clean = size_and_power_experiment(config, jobs=1)
        target = config.spec.free_names().index("b_cost")
        real_fit, real_simulate = montecarlo_module.estimate_design, montecarlo_module.simulate_designs
        seed_7 = seed_from(config.seed, 7)

        def planted(design, start, hold=()):
            if hold:
                return "restricted" if int(design.chosen.sum()) % 5 == 0 else None
            return "general" if start[target] == -0.4 and int(design.chosen.sum()) % 2 == 0 else None

        def failing_fit(design, start=None, hold=()):
            if planted(design, start, hold):
                raise ChoiceStatsError(f"planted {planted(design, start, hold)} failure")
            return real_fit(design, start=start, hold=hold)

        def failing_simulate(spec, truths, generator, n_persons, obs_per_person, seed):
            if seed == seed_7:
                raise ChoiceStatsError("planted simulation failure")
            return real_simulate(spec, truths, generator, n_persons, obs_per_person, seed)

        monkeypatch.setattr(montecarlo_module, "estimate_design", failing_fit)
        monkeypatch.setattr(montecarlo_module, "simulate_designs", failing_simulate)
        with pytest.warns(ReplicateFailureWarning) as caught:
            report = size_and_power_experiment(config, jobs=jobs)

        want_rows, reasons = [], {}
        for row in clean.rows:
            rep, effect = row["rep"], row["effect"]
            truth = [{**config.true_params, "b_cost": effect}[n] for n in config.spec.free_names()]
            design = simulate_designs(
                config.spec, [truth], config.generator, config.n_persons, config.obs_per_person, seed_from(config.seed, rep)
            )[0]
            reason = "simulation" if rep == 7 else planted(design, truth) or planted(design, None, (target,))
            if reason is None:
                want_rows.append(row)
            else:
                want_rows.append({"rep": rep, "effect": effect, "converged": False})
                reasons[f"planted {reason} failure"] = reasons.get(f"planted {reason} failure", 0) + 1
        failed = sum(reasons.values())
        assert set(reasons) == {"planted general failure", "planted restricted failure", "planted simulation failure"}
        assert report.rows == want_rows
        assert report.failures == failed
        for record in report.rates:
            good = [r for r in want_rows if r["effect"] == record["effect"] and r["converged"]]
            assert record["n"] == len(good)
        assert [str(w.message) for w in caught] == [
            f"{failed} of {len(want_rows)} replicates failed (by reason: {dict(sorted(reasons.items()))}); "
            "only the others count downstream"
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_value_error_in_a_cell_propagates(self, monkeypatch, jobs):
        # The direction reaches the workers with the cell's arguments. An
        # unknown one makes each cell's t test raise ValueError: a bug, not
        # a failed cell.
        monkeypatch.setattr(montecarlo_module, "resolve_sidedness", lambda *args, **kwargs: "sideways")
        with pytest.raises(ValueError, match="sidedness must be one of"):
            size_and_power_experiment(make_config(n_persons=60), jobs=jobs)

    def test_effect_sizes_must_include_null(self):
        with pytest.raises(ValueError):
            size_and_power_experiment(make_config(effect_sizes=(-0.4,)))
        with pytest.raises(ValueError):
            size_and_power_experiment(make_config(effect_sizes=()))

    def test_undeclared_direction_noted(self):
        report = size_and_power_experiment(
            make_config(n_persons=60, target_parameter="asc_bus", effect_sizes=(0.0,)),
            jobs=1,
        )
        assert any("greater" in note for note in report.notes)

    def test_declared_direction_needs_no_note(self):
        report = size_and_power_experiment(make_config(n_persons=60), jobs=1)
        assert report.notes == ()


class TestCoverage:
    @pytest.fixture
    def report(self, coverage_report):
        return coverage_report

    def test_report_shape(self, report):
        assert report.kind == "coverage"
        methods = [record["method"] for record in report.rates]
        assert methods == ["classical", "robust"]
        for record in report.rates:
            assert 0.7 <= record["rate"] <= 1.0

    def test_covered_flags_recompute_from_bounds(self, report):
        true_value = THREE_MODE_TRUE["b_cost"]
        for row in report.rows:
            if not row["converged"]:
                continue
            for method in ("classical", "robust"):
                want = row[f"ci_lower_{method}"] <= true_value <= row[f"ci_upper_{method}"]
                assert row[f"covered_{method}"] == want

    def test_sampling_summary_keyed_by_parameter(self, report):
        if report.failures == 0:
            assert set(report.sampling["mean"]) == {"asc_bus", "asc_rail", "b_tt", "b_cost"}
            assert abs(report.sampling["mean"]["b_cost"] - THREE_MODE_TRUE["b_cost"]) < 0.1

    def test_bootstrap_interval_included_when_requested(self):
        report = coverage_experiment(
            make_config(n_persons=100, bootstrap_s=20, ci_level=0.9), jobs=2
        )
        methods = [record["method"] for record in report.rates]
        assert methods == ["classical", "robust", "bootstrap"]
        boot = report.rate("bootstrap")
        assert 0.5 <= boot <= 1.0

    def test_an_interval_error_is_not_taken_for_too_few_draws(self, monkeypatch):
        def broken(*args):
            raise ValueError("bug")

        monkeypatch.setattr(bootstrap_module, "quantile_interval", broken)
        config = make_config(n_persons=60, bootstrap_s=MIN_DRAWS)
        with pytest.raises(ValueError, match="bug"):
            coverage_experiment(config, jobs=1)

    def test_a_rep_with_too_few_converged_draws_has_no_bootstrap_flag(self, monkeypatch):
        real = montecarlo_module.bootstrap_run
        converged = []

        def first_mostly_failed(*args, **kwargs):
            result = real(*args, **kwargs)
            if not converged:
                result = dataclasses.replace(
                    result, converged=np.arange(result.s_samples) < MIN_DRAWS - 1
                )
            converged.append(result.s_converged)
            return result

        monkeypatch.setattr(montecarlo_module, "bootstrap_run", first_mostly_failed)
        report = coverage_experiment(make_config(n_persons=60, bootstrap_s=MIN_DRAWS + 2), jobs=1)
        assert converged[0] == MIN_DRAWS - 1 and min(converged[1:]) >= MIN_DRAWS
        assert report.failures == 0
        first = report.rows[0]
        assert first["converged"] and first["covered_bootstrap"] is None
        assert "ci_lower_bootstrap" not in first
        assert all(isinstance(row["covered_bootstrap"], bool) for row in report.rows[1:])
        assert report.rates[2]["method"] == "bootstrap"
        assert report.rates[2]["n"] == len(report.rows) - 1

    def test_job_count_does_not_change_rows(self):
        config = make_config(n_persons=60)
        serial = coverage_experiment(config, jobs=1)
        parallel = coverage_experiment(config, jobs=3)
        assert serial.rows == parallel.rows
        assert serial.rates == parallel.rates


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_rep_fails_only_its_own_row(self, monkeypatch, tmp_path, jobs):
        # Planted failures: the fit of every fifth rep. Each leaves a bare
        # not-converged row, is counted once and is left out of every rate.
        config = make_config(n_persons=60, bootstrap_s=MIN_DRAWS)
        clean = coverage_experiment(config, jobs=1)
        planted = {rep for rep in range(config.replications) if rep % 5 == 2}
        truth = [config.true_params[name] for name in config.spec.free_names()]
        chosen = {
            simulate_designs(
                config.spec, [truth], config.generator, config.n_persons, config.obs_per_person, seed_from(config.seed, rep)
            )[0].chosen.tobytes()
            for rep in planted
        }
        real_fit = montecarlo_module.estimate_design

        def failing_fit(design, start=None, hold=()):
            if design.chosen.tobytes() in chosen:
                raise ChoiceStatsError("planted fit failure")
            return real_fit(design, start=start, hold=hold)

        monkeypatch.setattr(montecarlo_module, "estimate_design", failing_fit)
        with pytest.warns(ReplicateFailureWarning, match=f"{len(planted)} of 50 replicates failed"):
            report = coverage_experiment(config, jobs=jobs)

        want = [{"rep": r["rep"], "converged": False} if r["rep"] in planted else r for r in clean.rows]
        assert report.rows == want
        assert report.failures == len(planted)
        assert [record["n"] for record in report.rates] == [config.replications - len(planted)] * 3
        save_rows(report.rows, tmp_path / "replications.csv")
        with open(tmp_path / "replications.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[:3] == ["rep", "converged", "estimate"]
        assert "effect" not in header


class TestFailureReasons:
    """A failed cell's reason reaches the failure tally, and the tally's warning
    names the line that ran the experiment."""

    @pytest.mark.parametrize("experiment", [size_and_power_experiment, coverage_experiment])
    def test_an_unconverged_fit_is_tallied_by_its_status(self, monkeypatch, experiment):
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        with pytest.warns(ReplicateFailureWarning) as caught:
            report = experiment(make_config(n_persons=60), jobs=1)
        assert report.failures > 0
        assert f"(by reason: {{'max_iterations': {report.failures}}})" in str(caught[0].message)

    @pytest.mark.parametrize("experiment", [size_and_power_experiment, coverage_experiment])
    def test_the_failure_warning_names_the_caller(self, monkeypatch, experiment):
        def failing_simulate(*args):
            raise ChoiceStatsError("planted simulation failure")

        monkeypatch.setattr(montecarlo_module, "simulate_designs", failing_simulate)
        with pytest.warns(ReplicateFailureWarning) as caught:
            experiment(make_config(n_persons=60), jobs=1)
        assert [w.filename for w in caught] == [__file__]

    def test_a_constant_attribute_warns_before_any_replication(self):
        # x is 2 on both alternatives, and b_x * x on b alone is 2 asc_b: every
        # fit is singular. Replications silence their warnings, so the one
        # that explains why comes from the config's validation.
        spec = ModelSpec(
            ["a", "b"], [ParameterDef("asc_b"), ParameterDef("b_x")],
            {"b": [UtilityTerm("asc_b", "_const"), UtilityTerm("b_x", "x")]},
        )
        config = make_config(
            spec=spec, generator=GeneratorSpec((AttributeRule("x", dist="constant", value=2.0),)),
            true_params={"asc_b": 0.5, "b_x": 0.0}, n_persons=100, target_parameter="b_x", effect_sizes=(0.0,),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = size_and_power_experiment(config, jobs=1)
        assert [w.category for w in caught] == [IdentificationRiskWarning, ReplicateFailureWarning]
        assert str(caught[0].message).startswith("attribute 'x' is constant across alternatives")
        assert "{'singular_hessian': 50}" in str(caught[1].message) and report.failures == 50


class TestCellsReadTheEstimateRecord:
    """A size/power cell and a coverage rep report, for their target, the tests
    and intervals that the command line writes for the same data, null and
    sidedness."""

    @staticmethod
    def results_of(command, config, true_params, rep, tmp_path, *flags):
        # The replication's data as files, fitted from the truth as the cell's fit is.
        truth = [true_params[name] for name in config.spec.free_names()]
        data = simulate_dataset(
            config.spec, truth, config.generator, config.n_persons, config.obs_per_person, seed_from(config.seed, rep)
        )
        parameters = [dataclasses.replace(p, start=true_params.get(p.name, p.start)) for p in config.spec.parameters]
        save_dataset(data, tmp_path / "data.csv")
        save_model_spec(dataclasses.replace(config.spec, parameters=parameters), tmp_path / "spec.json")
        out = tmp_path / "-".join((command, *flags))
        argv = [command, "--data", str(tmp_path / "data.csv"), "--spec", str(tmp_path / "spec.json")]
        assert main([*argv, "--ci-level", repr(config.ci_level), *flags, "--out", str(out)]) == 0
        return read_json(out / "results.json")

    def test_a_size_power_cell_reports_what_estimate_writes(self, tmp_path, capsys):
        config = make_config(n_persons=120, ci_level=0.9)
        rep, effect = 3, 1
        cell = partial(montecarlo_module._size_power_cell, "less")
        row = montecarlo_module._rep(config, cell, config.effect_sizes, rep)[effect]
        true_params = {**config.true_params, "b_cost": config.effect_sizes[effect]}
        # b_cost declares 'less' and a 0 null: --sided one tests it as the cell's one-sided rates do.
        one, two = (self.results_of("estimate", config, true_params, rep, tmp_path, "--sided", s) for s in ("one", "two"))
        assert one["estimates"]["b_cost"] == row["estimate"]
        for sided, doc in (("one", one), ("two", two)):
            tests = doc["tests"]["b_cost"]
            assert tests["t_classical"]["p_value"] == row[f"p_t_classical_{sided}"]
            assert tests["t_robust"]["p_value"] == row[f"p_t_robust_{sided}"]
        assert one["tests"]["b_cost"]["t_classical"]["sidedness"] == "one_sided_less"
        assert one["tests"]["b_cost"]["t_classical"]["statistic"] == row["t_classical"]
        assert one["tests"]["b_cost"]["wald"]["p_value"] == row["p_wald"]

    def test_a_coverage_rep_reports_the_intervals_estimate_and_bootstrap_write(self, tmp_path, capsys):
        config = make_config(n_persons=120, ci_level=0.9, bootstrap_s=MIN_DRAWS + 9)
        rep = 2
        (row,) = montecarlo_module._rep(config, montecarlo_module._coverage_cell, (None,), rep)
        fit = self.results_of("estimate", config, config.true_params, rep, tmp_path)
        for method in ("classical", "robust"):
            interval = fit["intervals"]["b_cost"][method]
            assert (interval["lower"], interval["upper"]) == (row[f"ci_lower_{method}"], row[f"ci_upper_{method}"])
        flags = ("--S", str(config.bootstrap_s), "--seed", str(seed_from(config.seed, rep, 1)))
        boot = self.results_of("bootstrap", config, config.true_params, rep, tmp_path, *flags)
        quantile = boot["bootstrap"]["intervals"]["b_cost"]["quantile"]
        assert (quantile["lower"], quantile["upper"]) == (row["ci_lower_bootstrap"], row["ci_upper_bootstrap"])


class TestSamplingSummary:
    def test_recovers_moments_of_normal_draws(self):
        rng = np.random.default_rng(8)
        draws = rng.normal(2.0, 3.0, size=(400, 1))
        mean, sd, gap = sampling_distribution_summary(draws)
        assert mean[0] == pytest.approx(2.0, abs=0.4)
        assert sd[0] == pytest.approx(3.0, abs=0.4)
        assert 0.0 <= gap < 0.08

    def test_gap_flags_non_normal_draws(self):
        rng = np.random.default_rng(9)
        normal_gap = sampling_distribution_summary(rng.normal(size=500))[2]
        lopsided_gap = sampling_distribution_summary(rng.exponential(size=500) ** 2)[2]
        assert lopsided_gap > normal_gap

    def test_one_dimensional_input_accepted(self):
        mean, sd, gap = sampling_distribution_summary(np.arange(50.0))
        assert mean.shape == (1,)
        assert sd.shape == (1,)

    def test_constant_column_does_not_crash(self):
        mean, sd, gap = sampling_distribution_summary(np.ones((60, 1)))
        assert sd[0] == 0.0

    def test_too_few_replications_rejected(self):
        with pytest.raises(ValueError):
            sampling_distribution_summary(np.zeros((49, 2)))


class TestSaveRows:
    def test_union_header_and_empty_cells(self, tmp_path):
        rows = [
            {"rep": 0, "effect": 0.0, "converged": True, "p_lr": 0.2},
            {"rep": 1, "converged": False},
            {"rep": 2, "effect": 0.0, "converged": True, "extra": "x"},
        ]
        path = tmp_path / "rows.csv"
        save_rows(rows, path)

        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == ["rep", "effect", "converged", "p_lr", "extra"]
        assert body[1] == ["1", "", "False", "", ""]
        assert body[2][4] == "x"
