"""Command-line workflows: files in, files out, exit codes, determinism."""

import functools
import json
import subprocess
import sys
from datetime import datetime

import numpy as np
import pytest

from choicestats import (
    ChoiceStatsError,
    ConvergenceError,
    EstimationOptions,
    EstimationResult,
    ExperimentConfig,
    ReplicateFailureWarning,
    build_design,
    load_dataset,
    multi_start,
    save_dataset,
    save_model_spec,
)
import choicestats.cli as cli_module
import choicestats.montecarlo as montecarlo_module
from choicestats import model
from choicestats.cli import main
from choicestats.dataio import read_json, write_json

from testtools import (
    THREE_MODE_TRUE,
    binary_spec,
    hand_dataset,
    three_mode_data,
    three_mode_generator,
    three_mode_spec,
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    save_dataset(three_mode_data(n_persons=300, obs_per_person=1, seed=21), root / "data.csv")
    save_model_spec(three_mode_spec(), root / "spec.json")

    # Constant attribute gap: the constant and the coefficient collide.
    collinear = hand_dataset(
        ["car", "bus"],
        [(f"p{i}", f"p{i}-1", i % 2, (True, True), ({"tt": 30.0}, {"tt": 10.0})) for i in range(12)],
    )
    save_dataset(collinear, root / "collinear.csv")
    save_model_spec(binary_spec(), root / "binary_spec.json")

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
        ci_level=0.95,
        seed=17,
        bootstrap_s=0,
    )
    size_doc = config.to_dict()
    size_doc["experiment"] = "size_power"
    write_json(size_doc, root / "mc_size.json")

    coverage_doc = config.to_dict()
    coverage_doc["experiment"] = "coverage"
    coverage_doc["n_persons"] = 40
    coverage_doc["ci_level"] = 0.9
    del coverage_doc["effect_sizes"]
    write_json(coverage_doc, root / "mc_coverage.json")

    bad_kind = config.to_dict()
    bad_kind["experiment"] = "anova"
    write_json(bad_kind, root / "mc_bad_kind.json")

    write_json({"replications": 50}, root / "mc_missing.json")
    return root


def stuck_fit(design, options):
    """Stand-in for estimate_design: a fit that ran out of iterations."""
    return EstimationResult(
        params_hat=np.zeros(design.k),
        names=list(design.free_names),
        ll_hat=-500.0,
        ll_0=-600.0,
        gradient_norm=0.4,
        hessian_at_optimum=-np.eye(design.k),
        iterations=100,
        status="max_iterations",
    )


def run_estimate(cli_files, outdir, *extra):
    argv = [
        "estimate",
        "--data", str(cli_files / "data.csv"),
        "--spec", str(cli_files / "spec.json"),
        "--out", str(outdir),
        *extra,
    ]
    return main(argv)


class TestEstimateCommand:
    def test_happy_path_writes_results_table_manifest(self, cli_files, tmp_path, capsys):
        assert run_estimate(cli_files, tmp_path) == 0
        out = capsys.readouterr().out
        assert "parameter" in out and "b_cost" in out

        doc = read_json(tmp_path / "results.json")
        assert doc["command"] == "estimate"
        assert doc["status"] == "converged"
        assert abs(doc["estimates"]["b_cost"] - THREE_MODE_TRUE["b_cost"]) < 0.1
        assert doc["fit"]["k"] == 4
        assert doc["hessian"]["rows"] == ["asc_bus", "asc_rail", "b_tt", "b_cost"]
        for name, iv in doc["intervals"].items():
            assert iv["classical"]["lower"] < iv["classical"]["upper"]
        for name, tests in doc["tests"].items():
            assert 0.0 <= tests["t_classical"]["p_value"] <= 1.0

        table = (tmp_path / "table.txt").read_text()
        assert table == out

        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "estimate"
        assert manifest["output_paths"] == ["results.json", "table.txt"]
        assert None not in manifest["options"].values()
        stamp = datetime.fromisoformat(manifest["timestamp"])
        assert stamp.tzinfo is not None

    def test_table_row_order_follows_declaration(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path)
        lines = capsys.readouterr().out.splitlines()
        row_names = [line.split()[0] for line in lines[2:6]]
        assert row_names == ["asc_bus", "asc_rail", "b_tt", "b_cost"]

    def test_sided_two_promotes_annotation_to_header(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path, "--sided", "two")
        out = capsys.readouterr().out
        assert "p (classical) (2-sided)" in out.splitlines()[0]

    def test_auto_sidedness_annotates_per_cell(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path, "--sided", "auto")
        out = capsys.readouterr().out
        # Constants resolve to the sign of their estimates, coefficients to
        # their declared direction, so the tags are mixed.
        assert "per cell" in out
        assert "(1-sided, H1 <)" in out

    def test_se_t_and_stars_columns(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path, "--se", "--t", "--stars")
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert "se (classical)" in header and "t (classical)" in header
        assert "***" in out

    def test_csv_format(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path, "--format", "csv")
        assert (tmp_path / "table.csv").exists()
        assert capsys.readouterr().out.splitlines()[0].startswith("parameter,")

    def test_stars_without_uncertainty_column_is_input_error(self, cli_files, tmp_path, capsys):
        assert run_estimate(cli_files, tmp_path, "--stars") == 1
        assert "stars" in capsys.readouterr().err

    def test_outdir_env_fallback(self, cli_files, tmp_path, monkeypatch):
        monkeypatch.setenv("CHOICESTATS_OUTDIR", str(tmp_path / "from_env"))
        argv = [
            "estimate",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "from_env" / "results.json").exists()


class TestExitCodes:
    def test_missing_required_flag_exits_1(self, cli_files):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", str(cli_files / "data.csv")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, cli_files, tmp_path, capsys, jobs):
        argv = [
            "bootstrap", "--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json"),
            "--out", str(tmp_path), "--S", "4", "--jobs", jobs,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "argument --jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "-0.2", "nan"])
    def test_ci_level_outside_the_unit_interval_exits_1_before_fitting(
        self, cli_files, tmp_path, capsys, monkeypatch, level
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(cli_module, "estimate_design", no_fit)
        for command, extra in (("estimate", []), ("bootstrap", ["--S", "4"])):
            argv = [
                command, "--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json"),
                "--out", str(tmp_path), "--ci-level", level, *extra,
            ]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "argument --ci-level: must be in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("starts", ["0", "-4"])
    def test_starts_below_one_exits_1(self, cli_files, tmp_path, capsys, starts):
        for command in ("estimate", "bootstrap"):
            argv = [
                command, "--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json"),
                "--out", str(tmp_path), "--starts", starts,
            ]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert "argument --starts: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_data_exits_1(self, cli_files, tmp_path, capsys):
        argv = [
            "estimate",
            "--data", str(tmp_path / "nope.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_exits_1(self, cli_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = [
            "estimate",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(bad),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 1

    def test_collinear_model_exits_2(self, cli_files, tmp_path, capsys):
        argv = [
            "estimate",
            "--data", str(cli_files / "collinear.csv"),
            "--spec", str(cli_files / "binary_spec.json"),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "identification" in err
        partial = read_json(tmp_path / "results.json")
        assert partial["status"] == "singular_hessian"

    def test_nonconvergence_exits_3(self, cli_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "estimate_design", stuck_fit)
        assert run_estimate(cli_files, tmp_path) == 3
        assert "did not converge" in capsys.readouterr().err
        partial = read_json(tmp_path / "results.json")
        assert partial["status"] == "max_iterations"

    def test_bootstrap_nonconvergence_writes_partial_results(
        self, cli_files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_module, "estimate_design", stuck_fit)
        argv = [
            "bootstrap",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--S", "10",
            "--out", str(tmp_path),
        ]
        assert main(argv) == 3
        assert "did not converge" in capsys.readouterr().err
        partial = read_json(tmp_path / "results.json")
        assert partial["command"] == "bootstrap"
        assert partial["status"] == "max_iterations"
        assert read_json(tmp_path / "manifest.json")["output_paths"] == ["results.json"]

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_starts_without_convergence_writes_partial_results(
        self, cli_files, tmp_path, capsys, monkeypatch, command
    ):
        # One iteration at an unreachable tolerance: no start converges.
        options = functools.partial(
            EstimationOptions, max_iterations=1, gradient_tolerance=1e-13
        )
        monkeypatch.setattr(cli_module, "EstimationOptions", options)
        argv = [
            command,
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--starts", "3",
            "--out", str(tmp_path),
        ]
        assert main(argv) == 3
        assert "did not converge" in capsys.readouterr().err
        partial = read_json(tmp_path / "results.json")
        assert partial["command"] == command
        assert partial["status"] == "max_iterations"
        assert read_json(tmp_path / "manifest.json")["output_paths"] == ["results.json"]

        design = build_design(load_dataset(cli_files / "data.csv"), three_mode_spec())
        with pytest.raises(ConvergenceError) as excinfo:
            multi_start(design, options(n_starts=3, seed=0))
        best = max(excinfo.value.runs, key=lambda r: r.ll_hat)
        assert partial["ll_hat"] == best.ll_hat
        assert partial["estimates"] == best.params_dict()

    def test_nan_attribute_cell_exits_1(self, cli_files, tmp_path, capsys):
        lines = (cli_files / "data.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("cost")] = "nan"
        lines[1] = ",".join(row)
        (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
        argv = [
            "estimate",
            "--data", str(tmp_path / "nan.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 1
        assert "attribute 'cost' is not finite" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "choicestats" in capsys.readouterr().out


class TestReportCommand:
    def test_rerenders_estimate_table_byte_identical(self, cli_files, tmp_path, capsys):
        first = tmp_path / "fit"
        second = tmp_path / "rerender"
        run_estimate(cli_files, first, "--se", "--t")
        argv = [
            "report",
            "--results", str(first / "results.json"),
            "--out", str(second),
            "--se", "--t",
        ]
        assert main(argv) == 0
        assert (second / "table.txt").read_bytes() == (first / "table.txt").read_bytes()

    def test_rerenders_bootstrap_results(self, cli_files, tmp_path, capsys):
        first = tmp_path / "boot"
        argv = [
            "bootstrap",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--out", str(first),
            "--S", "25",
        ]
        assert main(argv) == 0
        second = tmp_path / "boot_rerender"
        argv = ["report", "--results", str(first / "results.json"), "--out", str(second)]
        assert main(argv) == 0
        assert (second / "table.txt").read_bytes() == (first / "table.txt").read_bytes()

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_partial_results_exit_1(self, cli_files, tmp_path, capsys, monkeypatch, command):
        # estimate fails identification (exit 2); bootstrap runs out of
        # iterations (exit 3). Either way the partial results hold no table.
        if command == "estimate":
            data, spec, code = "collinear.csv", "binary_spec.json", 2
        else:
            monkeypatch.setattr(cli_module, "estimate_design", stuck_fit)
            data, spec, code = "data.csv", "spec.json", 3
        fit = tmp_path / "fit"
        argv = [
            command,
            "--data", str(cli_files / data),
            "--spec", str(cli_files / spec),
            "--out", str(fit),
        ]
        assert main(argv) == code
        capsys.readouterr()
        argv = ["report", "--results", str(fit / "results.json"), "--out", str(tmp_path / "rerender")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "partial" in err

    def test_results_without_command_tag_exits_1(self, tmp_path, capsys):
        write_json({"estimates": {}}, tmp_path / "results.json")
        argv = ["report", "--results", str(tmp_path / "results.json"), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "command tag" in capsys.readouterr().err

    def test_results_that_are_not_an_object_exit_1(self, tmp_path, capsys):
        write_json([], tmp_path / "results.json")
        argv = ["report", "--results", str(tmp_path / "results.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected a JSON object, got list" in err


class TestBootstrapCommand:
    def test_outputs_and_job_invariance(self, cli_files, tmp_path, capsys):
        dir_serial = tmp_path / "serial"
        dir_parallel = tmp_path / "parallel"
        common = [
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--S", "25",
            "--seed", "4",
        ]
        assert main(["bootstrap", *common, "--out", str(dir_serial)]) == 0
        assert main(["bootstrap", *common, "--out", str(dir_parallel), "--jobs", "2"]) == 0

        draws = (dir_serial / "draws.csv").read_text().splitlines()
        assert len(draws) == 26
        assert draws[0] == "replicate,converged,asc_bus,asc_rail,b_tt,b_cost"
        assert (dir_serial / "draws.csv").read_bytes() == (dir_parallel / "draws.csv").read_bytes()
        assert (dir_serial / "results.json").read_bytes() == (
            dir_parallel / "results.json"
        ).read_bytes()

        doc = read_json(dir_serial / "results.json")
        boot = doc["bootstrap"]
        assert boot["s_samples"] == 25
        assert boot["s_converged"] + boot["n_failed"] == 25
        for name, iv in boot["intervals"].items():
            assert iv["hpd"]["upper"] - iv["hpd"]["lower"] <= (
                iv["quantile"]["upper"] - iv["quantile"]["lower"]
            ) + 1e-12
        assert set(boot["empirical_p"]) <= set(doc["estimates"])


class TestMontecarloCommand:
    def test_size_power_run_and_job_invariance(self, cli_files, tmp_path, capsys):
        dir_serial = tmp_path / "serial"
        dir_parallel = tmp_path / "parallel"
        base = ["montecarlo", "--config", str(cli_files / "mc_size.json")]
        assert main([*base, "--out", str(dir_serial)]) == 0
        out = capsys.readouterr().out
        assert "lr effect=0: rate" in out
        assert "t_classical_one effect=0: rate" in out

        assert main([*base, "--out", str(dir_parallel), "--jobs", "3"]) == 0
        assert (dir_serial / "report.json").read_bytes() == (
            dir_parallel / "report.json"
        ).read_bytes()
        assert (dir_serial / "replications.csv").read_bytes() == (
            dir_parallel / "replications.csv"
        ).read_bytes()

        doc = read_json(dir_serial / "report.json")
        assert doc["report"]["kind"] == "size_power"
        assert doc["config"]["seed"] == 17
        rows = (dir_serial / "replications.csv").read_text().splitlines()
        assert len(rows) == 51

    def test_seed_flag_overrides_config_seed(self, cli_files, tmp_path):
        argv = [
            "montecarlo",
            "--config", str(cli_files / "mc_size.json"),
            "--out", str(tmp_path),
            "--seed", "99",
        ]
        assert main(argv) == 0
        assert read_json(tmp_path / "report.json")["config"]["seed"] == 99

    def test_seed_zero_overrides_config_seed(self, cli_files, tmp_path):
        argv = [
            "montecarlo",
            "--config", str(cli_files / "mc_size.json"),
            "--out", str(tmp_path),
            "--seed", "0",
        ]
        assert main(argv) == 0
        assert read_json(tmp_path / "report.json")["config"]["seed"] == 0

    def test_rates_without_converged_cells_are_null(self, cli_files, tmp_path, capsys, monkeypatch):
        def fail(design, options=None, **kwargs):
            raise ChoiceStatsError("synthetic fit failure")

        monkeypatch.setattr(montecarlo_module, "estimate_design", fail)
        argv = ["montecarlo", "--config", str(cli_files / "mc_size.json"), "--out", str(tmp_path)]
        with pytest.warns(ReplicateFailureWarning):
            assert main(argv) == 0
        assert "lr effect=0: rate n/a (se n/a, n=0)" in capsys.readouterr().out

        def reject(token):
            raise AssertionError(f"report.json holds the non-JSON constant {token}")

        text = (tmp_path / "report.json").read_text()
        report = json.loads(text, parse_constant=reject)["report"]
        assert report["failures"] == 50
        assert all(r["rate"] is None and r["rate_se"] is None for r in report["rates"])

    def test_coverage_experiment(self, cli_files, tmp_path, capsys):
        argv = [
            "montecarlo",
            "--config", str(cli_files / "mc_coverage.json"),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "classical: rate" in out
        assert read_json(tmp_path / "report.json")["report"]["kind"] == "coverage"

    def test_unknown_experiment_kind_exits_1(self, cli_files, tmp_path, capsys):
        argv = [
            "montecarlo",
            "--config", str(cli_files / "mc_bad_kind.json"),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "anova" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rule, message",
        [
            (
                {"name": "cost", "dist": "uniform", "low": 1.0, "high": 12.0,
                 "alternatives": ["car", "bus"]},
                "alternative 'rail' references attribute 'cost'",
            ),
            ({"name": "cost", "dist": "gamma"}, "unknown attribute distribution 'gamma'"),
            (
                {"name": "cost", "dist": "uniform", "alternatives": ["car", "bus", "rail", "tram"]},
                "attribute 'cost' names unknown alternative 'tram'",
            ),
        ],
        ids=["attribute_not_drawn", "unknown_distribution", "unknown_alternative"],
    )
    def test_generator_mismatch_exits_1(self, cli_files, tmp_path, capsys, rule, message):
        doc = read_json(cli_files / "mc_size.json")
        rules = doc["generator"]["attributes"]
        doc["generator"]["attributes"] = [r for r in rules if r["name"] != "cost"] + [rule]
        write_json(doc, tmp_path / "config.json")
        argv = ["montecarlo", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_misspelt_generator_key_exits_1(self, cli_files, tmp_path, capsys):
        doc = read_json(cli_files / "mc_size.json")
        doc["generator"]["attributes"][1] = {"name": "cost", "dist": "uniform", "lo": 1, "hi": 12}
        write_json(doc, tmp_path / "config.json")
        argv = ["montecarlo", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        message = "generator attribute rule 'cost' has unknown keys 'hi', 'lo'"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_missing_config_keys_exit_1(self, cli_files, tmp_path, capsys):
        argv = [
            "montecarlo",
            "--config", str(cli_files / "mc_missing.json"),
            "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "missing required keys" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        write_json([], tmp_path / "config.json")
        argv = ["montecarlo", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected a JSON object, got list" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_config_with_an_empty_spec_exits_1(self, cli_files, tmp_path, capsys):
        doc = read_json(cli_files / "mc_size.json")
        doc["spec"] = {}
        path = tmp_path / "config.json"
        write_json(doc, path)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed experiment config: KeyError('alternatives')")
        assert not (tmp_path / "out" / "report.json").exists()


class TestCompileOnce:
    """Each command compiles its dataset once; each Monte Carlo cell simulates
    straight into one design."""

    @staticmethod
    def _count_calls(monkeypatch, function):
        real = getattr(model, function)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("choicestats") and getattr(module, function, None) is real:
                monkeypatch.setattr(module, function, counting)
        return calls

    @pytest.fixture
    def build_calls(self, monkeypatch):
        return self._count_calls(monkeypatch, "build_design")

    @pytest.fixture
    def simulate_calls(self, monkeypatch):
        return self._count_calls(monkeypatch, "simulate_design")

    @staticmethod
    def _config(**overrides):
        return ExperimentConfig(
            spec=three_mode_spec(),
            generator=three_mode_generator(),
            true_params=dict(THREE_MODE_TRUE),
            n_persons=40,
            obs_per_person=1,
            replications=50,
            alpha=0.05,
            target_parameter="b_cost",
            **overrides,
        )

    @pytest.mark.parametrize(
        "argv",
        [["estimate"], ["estimate", "--starts", "3"], ["bootstrap", "--S", "10"]],
        ids=["estimate", "estimate_starts", "bootstrap"],
    )
    def test_command_builds_design_once(self, cli_files, tmp_path, capsys, build_calls, argv):
        data = ["--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json")]
        assert main([*argv, *data, "--out", str(tmp_path)]) == 0
        assert len(build_calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [["estimate"], ["estimate", "--starts", "3"], ["bootstrap", "--S", "10"]],
        ids=["estimate", "estimate_starts", "bootstrap"],
    )
    def test_command_validates_dataset_once(self, cli_files, tmp_path, capsys, monkeypatch, argv):
        real, calls = model.Dataset.validate, []

        def counting(dataset):
            calls.append(dataset)
            return real(dataset)

        monkeypatch.setattr(model.Dataset, "validate", counting)
        data = ["--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json")]
        assert main([*argv, *data, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_coverage_rep_with_bootstrap_builds_design_once(self, build_calls, simulate_calls):
        row = montecarlo_module._coverage_rep(self._config(bootstrap_s=3), 0)
        assert "covered_bootstrap" in row
        assert len(build_calls) == 0
        assert len(simulate_calls) == 1

    def test_size_power_cell_simulates_design_once(self, build_calls, simulate_calls):
        row = montecarlo_module._size_power_cell(self._config(effect_sizes=(0.0,)), "less", 0)
        assert "p_lm" in row
        assert len(build_calls) == 0
        assert len(simulate_calls) == 1


class TestSubprocessEntry:
    def test_module_runs_as_script(self, cli_files, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "choicestats.cli",
                "estimate",
                "--data", str(cli_files / "data.csv"),
                "--spec", str(cli_files / "spec.json"),
                "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "parameter" in proc.stdout
        assert (tmp_path / "results.json").exists()
