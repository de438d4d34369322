"""Command-line workflows: files in, files out, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from choicestats import (
    ChoiceStatsError,
    ConvergenceError,
    EstimationResult,
    ExperimentConfig,
    ReplicateFailureWarning,
    build_design,
    load_dataset,
    multi_start,
    save_dataset,
    save_model_spec,
)
import choicestats
import choicestats.bootstrap as bootstrap_module
import choicestats.cli as cli_module
import choicestats.estimation as estimation_module
import choicestats.montecarlo as montecarlo_module
from choicestats import model
from choicestats.cli import main
from choicestats.dataio import read_json, write_json

from testtools import (
    THREE_MODE_TRUE,
    binary_spec,
    hand_dataset,
    shift_spec,
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
    # Three persons: the fit converges, the BHHH matrix has rank 3 for 4 parameters.
    save_dataset(three_mode_data(n_persons=3, obs_per_person=200, seed=3), root / "three_persons.csv")

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


def stuck_fit(design, start=None):
    """Stand-in for estimate_design: a fit that ran out of iterations."""
    return EstimationResult(
        params_hat=np.zeros(design.k),
        names=list(design.free_names),
        ll_hat=-500.0,
        gradient_norm=0.4,
        gradient=np.full(design.k, 0.4),
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

    def test_sided_auto_reports_the_declared_direction_against_the_estimate(self, cli_files, tmp_path, capsys):
        # asc_bus is estimated positive; declared "less", auto keeps "less".
        doc = read_json(cli_files / "spec.json")
        next(p for p in doc["parameters"] if p["name"] == "asc_bus")["alternative"] = "less"
        write_json(doc, tmp_path / "spec.json")
        argv = [
            "estimate",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(tmp_path / "spec.json"),
            "--out", str(tmp_path / "fit"),
            "--sided", "auto",
        ]
        assert main(argv) == 0
        results = read_json(tmp_path / "fit" / "results.json")
        assert results["estimates"]["asc_bus"] > 0.0
        test = results["tests"]["asc_bus"]["t_classical"]
        assert test["sidedness"] == "one_sided_less" and test["p_value"] > 0.5
        # The undeclared constant still follows the sign of its estimate.
        assert results["tests"]["asc_rail"]["t_classical"]["sidedness"] == "one_sided_greater"

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

        monkeypatch.setattr(cli_module, "multi_start", no_fit)
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

    def test_stars_without_se_or_t_exits_1_before_any_work(self, cli_files, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(cli_module, "multi_start", no_fit)
        data = ["--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json")]
        for command, extra in (
            ("estimate", data),
            ("bootstrap", [*data, "--S", "4"]),
            ("report", ["--results", str(tmp_path / "results.json")]),
        ):
            assert main([command, *extra, "--out", str(tmp_path), "--stars"]) == 1
            assert "error: --stars needs --se or --t" in capsys.readouterr().err
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

    def test_singular_covariance_after_a_converged_fit_writes_partial_results(
        self, tmp_path, capsys
    ):
        # Three persons give a score outer product of rank 3 for 4 parameters:
        # the fit converges, its BHHH covariance cannot be formed.
        save_dataset(three_mode_data(n_persons=3, obs_per_person=200, seed=3), tmp_path / "data.csv")
        save_model_spec(three_mode_spec(), tmp_path / "spec.json")
        fit = tmp_path / "fit"
        argv = [
            "estimate",
            "--data", str(tmp_path / "data.csv"),
            "--spec", str(tmp_path / "spec.json"),
            "--out", str(fit),
        ]
        assert main(argv) == 2
        assert "score outer product is numerically singular" in capsys.readouterr().err
        partial = read_json(fit / "results.json")
        assert partial["status"] == "singular_covariance"
        assert set(partial["estimates"]) == {"asc_bus", "asc_rail", "b_tt", "b_cost"}
        assert np.isfinite(partial["ll_hat"]) and partial["iterations"] >= 1
        assert read_json(fit / "manifest.json")["output_paths"] == ["results.json"]
        argv = ["report", "--results", str(fit / "results.json"), "--out", str(tmp_path / "rerender")]
        assert main(argv) == 1
        assert "partial estimate results (status singular_covariance)" in capsys.readouterr().err

    def test_a_subnormal_information_matrix_exits_2_with_partial_results(self, tmp_path, capsys):
        # x of order 1e-160 puts the information near 1e-319, a subnormal whose
        # reciprocal overflows: the covariance is refused rather than written as inf.
        rng = np.random.default_rng(5)
        data = hand_dataset(["a", "b"], [
            (f"p{i}", f"p{i}.1", i % 2, (True, True), tuple({"x": v} for v in rng.uniform(1.0, 2.0, 2) * 1e-160))
            for i in range(40)
        ])
        spec = model.ModelSpec(["a", "b"], [model.ParameterDef("b_x")], {"a": [model.UtilityTerm("b_x", "x")]})
        save_dataset(data, tmp_path / "data.csv")
        save_model_spec(spec, tmp_path / "spec.json")
        fit = tmp_path / "fit"
        argv = [
            "estimate", "--data", str(tmp_path / "data.csv"), "--spec", str(tmp_path / "spec.json"), "--out", str(fit),
        ]
        assert main(argv) == 2
        assert "negative hessian is numerically singular" in capsys.readouterr().err
        partial = read_json(fit / "results.json")
        assert partial["status"] == "singular_covariance" and set(partial["estimates"]) == {"b_x"}
        assert read_json(fit / "manifest.json")["output_paths"] == ["results.json"]

    def test_nonconvergence_exits_3(self, cli_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimation_module, "estimate_design", stuck_fit)
        assert run_estimate(cli_files, tmp_path) == 3
        assert "did not converge" in capsys.readouterr().err
        partial = read_json(tmp_path / "results.json")
        assert partial["status"] == "max_iterations"

    def test_bootstrap_nonconvergence_writes_partial_results(
        self, cli_files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(estimation_module, "estimate_design", stuck_fit)
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
        monkeypatch.setattr(estimation_module, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(estimation_module, "GRADIENT_TOLERANCE", 1e-13)
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
        best, _ = multi_start(design, n_starts=3, seed=0)
        assert best.status == "max_iterations"
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


RERENDER_FORMATS = [("text", "txt"), ("csv", "csv"), ("json", "json")]
RERENDER_FLAGS = {"plain": (), "se-t": ("--se", "--t"), "se-t-stars": ("--se", "--t", "--stars")}


class TestReportCommand:
    @pytest.mark.parametrize("flags", list(RERENDER_FLAGS.values()), ids=list(RERENDER_FLAGS))
    @pytest.mark.parametrize("fmt,ext", RERENDER_FORMATS, ids=[f for f, _ in RERENDER_FORMATS])
    def test_rerenders_estimate_table_byte_identical(self, cli_files, tmp_path, capsys, fmt, ext, flags):
        first = tmp_path / "fit"
        second = tmp_path / "rerender"
        run_estimate(cli_files, first, "--format", fmt, *flags)
        capsys.readouterr()
        argv = [
            "report",
            "--results", str(first / "results.json"),
            "--out", str(second),
            "--format", fmt,
            *flags,
        ]
        assert main(argv) == 0
        assert (second / f"table.{ext}").read_bytes() == (first / f"table.{ext}").read_bytes()
        assert capsys.readouterr().out == (first / f"table.{ext}").read_bytes().decode()

    @pytest.mark.parametrize("flags", list(RERENDER_FLAGS.values()), ids=list(RERENDER_FLAGS))
    @pytest.mark.parametrize("fmt,ext", RERENDER_FORMATS, ids=[f for f, _ in RERENDER_FORMATS])
    def test_rerenders_bootstrap_results(self, cli_files, tmp_path, capsys, fmt, ext, flags):
        first = tmp_path / "boot"
        argv = [
            "bootstrap",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--out", str(first),
            "--S", "25",
            "--format", fmt,
            *flags,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        second = tmp_path / "boot_rerender"
        argv = ["report", "--results", str(first / "results.json"), "--out", str(second), "--format", fmt, *flags]
        assert main(argv) == 0
        assert (second / f"table.{ext}").read_bytes() == (first / f"table.{ext}").read_bytes()
        assert capsys.readouterr().out == (first / f"table.{ext}").read_bytes().decode()

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_partial_results_exit_1(self, cli_files, tmp_path, capsys, monkeypatch, command):
        # estimate fails identification (exit 2); bootstrap runs out of
        # iterations (exit 3). Either way the partial results hold no table.
        if command == "estimate":
            data, spec, code = "collinear.csv", "binary_spec.json", 2
        else:
            monkeypatch.setattr(estimation_module, "estimate_design", stuck_fit)
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

    def test_unhashable_command_tag_exits_1(self, tmp_path, capsys):
        write_json({"command": ["estimate"], "estimates": {}}, tmp_path / "results.json")
        argv = ["report", "--results", str(tmp_path / "results.json"), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "command tag (got ['estimate'])" in capsys.readouterr().err

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


    def test_t_ratio_tests_each_parameters_declared_null(self, cli_files, tmp_path, capsys):
        # estimate's t columns test h0_value; the bootstrap t once divided the estimate alone.
        spec = read_json(cli_files / "spec.json")
        for p in spec["parameters"]:
            p["h0_value"] = 1.0 if p["name"] == "b_tt" else p["h0_value"]
        write_json(spec, tmp_path / "spec.json")
        fit = tmp_path / "boot"
        argv = ["--data", str(cli_files / "data.csv"), "--spec", str(tmp_path / "spec.json"), "--S", "25"]
        assert main(["bootstrap", *argv, "--t", "--format", "json", "--out", str(fit)]) == 0
        table = capsys.readouterr().out
        doc = read_json(fit / "results.json")
        cells = {row["parameter"]: row["t_bootstrap"] for row in json.loads(table)["rows"]}
        for name, estimate in doc["estimates"].items():
            h0 = 1.0 if name == "b_tt" else 0.0
            assert cells[name] == f"{(estimate - h0) / doc['bootstrap']['se'][name]:.2f}"
        argv = ["report", "--results", str(fit / "results.json"), "--t", "--format", "json"]
        assert main([*argv, "--out", str(tmp_path / "rerender")]) == 0
        assert capsys.readouterr().out == table


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
        def fail(design, **kwargs):
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
            (
                # Parsed, this rule would draw cost from uniform(0, 1) and exit 0.
                {"name": "cost", "dist": "uniform", "mean": 30, "sd": 8},
                "attribute 'cost' sets 'mean', which dist 'uniform' does not read",
            ),
            (
                {"name": "cost", "dist": "normal", "mean": 6, "sd": -1},
                "attribute 'cost' has sd -1.0; it must be finite and >= 0",
            ),
            (
                {"name": "cost", "dist": "lognormal", "mean": 1, "sd": -1},
                "attribute 'cost' has sd -1.0; it must be finite and >= 0",
            ),
            (
                {"name": "cost", "dist": "uniform", "low": 60, "high": 5},
                "attribute 'cost' has high - low -55.0; it must be finite and >= 0",
            ),
        ],
        ids=[
            "attribute_not_drawn", "unknown_distribution", "unknown_alternative", "field_not_read",
            "normal_negative_sd", "lognormal_negative_sd", "uniform_low_above_high",
        ],
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

    def test_negative_heterogeneity_sd_exits_1(self, cli_files, tmp_path, capsys):
        doc = read_json(cli_files / "mc_size.json")
        doc["generator"]["heterogeneity"] = {"b_tt": -0.1}
        write_json(doc, tmp_path / "config.json")
        argv = ["montecarlo", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "error: heterogeneity of 'b_tt' has sd -0.1; it must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-1e400"])
    def test_config_with_a_non_finite_number_exits_1_naming_the_file(self, cli_files, tmp_path, capsys, number):
        # Before it was refused, every cell ran and writing report.json failed.
        doc = read_json(cli_files / "mc_size.json")
        doc["effect_sizes"] = [0.0, "effect"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace('"effect"', number), encoding="utf-8")
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: invalid JSON: {number} is not a finite number\n"
        assert not (tmp_path / "out" / "report.json").exists()

    def test_misspelt_generator_key_exits_1(self, cli_files, tmp_path, capsys):
        doc = read_json(cli_files / "mc_size.json")
        doc["generator"]["attributes"][1] = {"name": "cost", "dist": "uniform", "lo": 1, "hi": 12}
        write_json(doc, tmp_path / "config.json")
        argv = ["montecarlo", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        message = "generator.attributes[1] has unknown keys 'hi', 'lo'"
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
        assert err.startswith(f"error: {path}: malformed experiment config: spec is missing required keys")
        assert not (tmp_path / "out" / "report.json").exists()


HEAD_KEYS = {"command", "status", "estimates", "ll_hat", "gradient_norm", "iterations"}
ESTIMATE_KEYS = HEAD_KEYS | {
    "model", "n_obs", "n_persons", "ll_0", "start_index", "hessian", "fit", "covariance", "tests", "intervals",
    "ci_level",
}
BOOTSTRAP_KEYS = {"command", "model", "n_obs", "n_persons", "estimates", "ll_hat", "ci_level", "bootstrap"}
FIT = ("--data", "{inputs}/data.csv", "--spec", "{inputs}/spec.json")
#: Every exit path of the CLI: argv, whether the fit is stuck, exit code,
#: the files written besides manifest.json, and the JSON document among
#: them with its top-level keys. A partial results.json holds the head keys only.
EXIT_PATHS = {
    "estimate": (
        ["estimate", *FIT], False, 0, ["results.json", "table.txt"], ("results.json", ESTIMATE_KEYS),
    ),
    "estimate-starts-3": (
        ["estimate", *FIT, "--starts", "3"], False, 0, ["results.json", "table.txt"],
        ("results.json", ESTIMATE_KEYS | {"multi_start"}),
    ),
    "bootstrap": (
        ["bootstrap", *FIT, "--S", "25"], False, 0, ["draws.csv", "results.json", "table.txt"],
        ("results.json", BOOTSTRAP_KEYS),
    ),
    "singular-hessian": (
        ["estimate", "--data", "{inputs}/collinear.csv", "--spec", "{inputs}/binary_spec.json"], False, 2,
        ["results.json"], ("results.json", HEAD_KEYS),
    ),
    "singular-covariance": (
        ["estimate", "--data", "{inputs}/three_persons.csv", "--spec", "{inputs}/spec.json"], False, 2,
        ["results.json"], ("results.json", HEAD_KEYS),
    ),
    "estimate-not-converged": (["estimate", *FIT], True, 3, ["results.json"], ("results.json", HEAD_KEYS)),
    "bootstrap-not-converged": (
        ["bootstrap", *FIT, "--S", "10"], True, 3, ["results.json"], ("results.json", HEAD_KEYS),
    ),
    "bootstrap-too-few": (
        ["bootstrap", *FIT, "--S", "5"], False, 3, ["draws.csv", "results.json"], ("results.json", HEAD_KEYS),
    ),
    "montecarlo": (
        ["montecarlo", "--config", "{inputs}/mc_size.json"], False, 0, ["replications.csv", "report.json"],
        ("report.json", {"config", "report"}),
    ),
    "report": (["report", "--results", "{tmp}/fit/results.json"], False, 0, ["table.txt"], None),
}


class TestExitPaths:
    @pytest.mark.parametrize("argv, stuck, code, written, document", EXIT_PATHS.values(), ids=list(EXIT_PATHS))
    def test_the_manifest_lists_exactly_the_files_the_run_wrote(
        self, cli_files, tmp_path, capsys, monkeypatch, argv, stuck, code, written, document
    ):
        if argv[0] == "report":
            run_estimate(cli_files, tmp_path / "fit")
        if stuck:
            monkeypatch.setattr(estimation_module, "estimate_design", stuck_fit)
        out = tmp_path / "out"
        argv = [arg.format(inputs=cli_files, tmp=tmp_path) for arg in argv]
        assert main([*argv, "--out", str(out)]) == code
        assert read_json(out / "manifest.json")["output_paths"] == written
        assert sorted(path.name for path in out.iterdir()) == sorted([*written, "manifest.json"])
        if document is not None:
            name, keys = document
            assert set(read_json(out / name)) == keys


class TestCompileOnce:
    """Each command compiles its dataset once; each Monte Carlo replication
    simulates once, straight into its designs."""

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
    def simulate_many_calls(self, monkeypatch):
        return self._count_calls(monkeypatch, "simulate_designs")

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

    def test_coverage_rep_with_bootstrap_builds_design_once(self, build_calls, simulate_many_calls):
        (row,) = montecarlo_module._rep(self._config(bootstrap_s=3), montecarlo_module._coverage_cell, (None,), 0)
        assert "covered_bootstrap" in row
        assert len(build_calls) == 0
        assert len(simulate_many_calls) == 1

    def test_size_power_rep_simulates_once_for_all_effects(self, build_calls, simulate_many_calls):
        config = self._config(effect_sizes=(0.0, -0.4))
        rows = montecarlo_module._rep(config, partial(montecarlo_module._size_power_cell, "less"), config.effect_sizes, 0)
        assert [row["effect"] for row in rows] == [0.0, -0.4]
        assert all("p_lm" in row for row in rows)
        assert len(build_calls) == 0
        assert len(simulate_many_calls) == 1


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

    def test_a_spec_with_a_constant_on_every_alternative_warns_once(self, cli_files, tmp_path):
        # Loading and compiling the spec both validate it; the run warns once,
        # then exits 2 on the singular Hessian.
        save_model_spec(shift_spec(), tmp_path / "spec.json")
        proc = subprocess.run(
            [
                sys.executable, "-m", "choicestats.cli",
                "estimate",
                "--data", str(cli_files / "data.csv"),
                "--spec", str(tmp_path / "spec.json"),
                "--out", str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(choicestats.__file__).parents[1])},
        )
        assert proc.returncode == 2, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "IdentificationRiskWarning" in line]
        assert len(warned) == 1 and "every alternative carries a free constant" in warned[0]
        assert "identification failure: the Hessian is singular" in proc.stderr


def _subcommand_options(command):
    parser = cli_module._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions for flag in action.option_strings} - {"-h", "--help"}


class TestCommandLineContract:
    """Each subcommand takes only the options its handler reads, integer options
    are range-checked when parsed, and only a ChoiceStatsError becomes an exit code."""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("estimate", "--data --spec --out --seed --starts --ci-level --sided --jobs --format --se --t --stars"),
            ("bootstrap", "--data --spec --out --seed --starts --ci-level --S --jobs --format --se --t --stars"),
            ("montecarlo", "--config --out --seed --jobs"),
            ("report", "--results --out --format --se --t --stars"),
        ],
        ids=["estimate", "bootstrap", "montecarlo", "report"],
    )
    def test_each_subcommand_takes_exactly_its_options(self, command, flags):
        assert _subcommand_options(command) == set(flags.split())

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("montecarlo", ["--format", "csv"]),
            ("montecarlo", ["--se"]),
            ("montecarlo", ["--t"]),
            ("montecarlo", ["--stars"]),
            ("report", ["--seed", "1"]),
            ("report", ["--jobs", "2"]),
        ],
        ids=["montecarlo-format", "montecarlo-se", "montecarlo-t", "montecarlo-stars", "report-seed", "report-jobs"],
    )
    def test_an_option_the_handler_does_not_read_is_a_usage_error(self, cli_files, tmp_path, capsys, command, extra):
        if command == "montecarlo":
            source = ["--config", str(cli_files / "mc_size.json")]
        else:
            source = ["--results", str(tmp_path / "results.json")]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--out", str(tmp_path / "out"), *extra])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("bootstrap", ["--S", "1"], "argument --S: must be at least 2, got 1"),
            ("bootstrap", ["--S", "many"], "argument --S: invalid int value: 'many'"),
            ("estimate", ["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
            ("bootstrap", ["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
            ("montecarlo", ["--seed", "-1"], "argument --seed: must be at least 0, got -1"),
        ],
        ids=["S-1", "S-text", "estimate-seed", "bootstrap-seed", "montecarlo-seed"],
    )
    def test_integer_out_of_range_exits_1_before_fitting(
        self, cli_files, tmp_path, capsys, monkeypatch, command, extra, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(cli_module, "multi_start", no_fit)
        monkeypatch.setattr(montecarlo_module, "_size_power_cell", no_fit)
        if command == "montecarlo":
            source = ["--config", str(cli_files / "mc_size.json")]
        else:
            source = ["--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json")]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--out", str(tmp_path), *extra])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"seed": -2}, "seed must be >= 0, got -2"),
            ({"effect_sizes": [-0.4]}, "effect_sizes must include 0"),
            ({"effect_sizes": "0"}, 'effect_sizes must be a list, got "0"'),
            ({"alpha": "x"}, 'alpha must be a number, got "x"'),
        ],
        ids=["negative-seed", "no-null-effect", "effect-sizes-text", "alpha-text"],
    )
    def test_config_fault_exits_1_naming_the_file_before_any_cell(
        self, cli_files, tmp_path, capsys, monkeypatch, change, message
    ):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the config was checked")

        monkeypatch.setattr(montecarlo_module, "_size_power_cell", no_cell)
        path = tmp_path / "config.json"
        write_json({**read_json(cli_files / "mc_size.json"), **change}, path)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed experiment config") and message in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_a_whole_number_beyond_the_float_range_exits_1_naming_its_key(self, cli_files, tmp_path, capsys):
        # json.loads reads the literal as an int that no float holds.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**read_json(cli_files / "mc_size.json"), "alpha": 10**400}), encoding="utf-8")
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed experiment config: alpha must be a finite number, "
            "got a whole number beyond the float range\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_an_integer_literal_past_the_digit_limit_exits_1_naming_the_file(self, cli_files, tmp_path, capsys):
        # int() refuses text of more than sys.get_int_max_str_digits() digits with a ValueError.
        doc = {**read_json(cli_files / "mc_size.json"), "alpha": "literal"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace('"literal"', "1" * 5000), encoding="utf-8")
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"error: {path}: invalid JSON: an integer literal of 5000 digits exceeds the limit of {limit}\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bootstrap_with_too_few_converged_replicates_exits_3_with_partial_results(
        self, cli_files, tmp_path, capsys, monkeypatch
    ):
        real = bootstrap_module._bootstrap_replicate

        def nine_in_ten_fail(*args):
            if args[-1] % 10:
                raise ConvergenceError("max_iterations")
            return real(*args)

        monkeypatch.setattr(bootstrap_module, "_bootstrap_replicate", nine_in_ten_fail)
        fit = tmp_path / "fit"
        argv = [
            "bootstrap",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--S", "50",
            "--out", str(fit),
        ]
        with pytest.warns(ReplicateFailureWarning):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert "fewer than 10 converged replicates; by status: {'converged': 5, 'max_iterations': 45}" in err
        assert "error:" not in err
        draws = (fit / "draws.csv").read_text().splitlines()
        assert len(draws) == 51 and sum(line.split(",")[1] == "1" for line in draws[1:]) == 5
        partial = read_json(fit / "results.json")
        assert partial["command"] == "bootstrap"
        assert partial["status"] == "too_few_converged_replicates"
        assert set(partial["estimates"]) == {"asc_bus", "asc_rail", "b_tt", "b_cost"}
        assert read_json(fit / "manifest.json")["output_paths"] == ["draws.csv", "results.json"]

        argv = ["report", "--results", str(fit / "results.json"), "--out", str(tmp_path / "rerender")]
        assert main(argv) == 1
        assert "partial bootstrap results (status too_few_converged_replicates)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc.pop("covariance"), "results file is missing required key 'covariance'"),
            (lambda doc: doc["estimates"].update(b_cost="x"), 'estimates.b_cost must be a number, got "x"'),
        ],
        ids=["no-covariance", "text-estimate"],
    )
    def test_report_of_a_results_file_it_cannot_render_exits_1_naming_it(
        self, cli_files, tmp_path, capsys, damage, message
    ):
        run_estimate(cli_files, tmp_path / "fit")
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        damage(doc)
        path = tmp_path / "results.json"
        write_json(doc, path)
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed results file") and message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "rerender" / "table.txt").exists()

    def test_a_program_error_leaves_main_with_its_traceback(self, cli_files, tmp_path, capsys, monkeypatch):
        # A bug inside a replicate is not an input error: no "error:" line, no exit code.
        monkeypatch.setattr(montecarlo_module, "resolve_sidedness", lambda *args, **kwargs: "sideways")
        argv = ["montecarlo", "--config", str(cli_files / "mc_size.json"), "--out", str(tmp_path)]
        with pytest.raises(ValueError, match="sidedness must be one of"):
            main(argv)
        assert "error:" not in capsys.readouterr().err

    def test_report_of_a_results_file_without_a_parameter_entry_exits_1_naming_the_key_path(
        self, cli_files, tmp_path, capsys
    ):
        run_estimate(cli_files, tmp_path / "fit")
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        del doc["tests"]["b_tt"]
        path = tmp_path / "results.json"
        write_json(doc, path)
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed results file: tests has no entry for parameter 'b_tt'\n"
        assert captured.out == ""

    def test_report_of_a_p_value_out_of_range_exits_1_naming_the_key_path(self, cli_files, tmp_path, capsys):
        run_estimate(cli_files, tmp_path / "fit", "--se", "--t")
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        doc["tests"]["b_cost"]["t_robust"]["p_value"] = 2.0
        path = tmp_path / "results.json"
        write_json(doc, path)
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender"), "--t"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}: malformed results file: tests.b_cost.t_robust.p_value must be in [0, 1], got 2.0\n"
        )
        assert captured.out == ""

    def test_report_of_a_bootstrap_se_of_zero_exits_1_naming_the_key_path(self, cli_files, tmp_path, capsys):
        argv = ["bootstrap", "--data", str(cli_files / "data.csv"), "--spec", str(cli_files / "spec.json")]
        assert main([*argv, "--S", "25", "--out", str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        doc["bootstrap"]["se"]["b_cost"] = 0.0
        path = tmp_path / "results.json"
        write_json(doc, path)
        # The t (bootstrap) cell divides by the se, shown or not.
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed results file: bootstrap.se.b_cost must be positive, got 0.0\n"
        assert captured.out == ""

    def test_report_of_a_nan_token_exits_1_naming_the_file(self, cli_files, tmp_path, capsys):
        # Before the token was refused, the table showed nan and report exited 0.
        run_estimate(cli_files, tmp_path / "fit")
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        doc["estimates"]["b_cost"] = float("nan")
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: invalid JSON: NaN is not a finite number\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "crossings, s_converged, message",
        [
            (0, 0, "s_converged must be at least 1, got 0"),
            (26, 25, "crossings must be in [0, s_converged = 25], got 26"),
            (-1, 25, "crossings must be in [0, s_converged = 25], got -1"),
        ],
        ids=["no-replicates", "more-crossings-than-replicates", "negative-crossings"],
    )
    def test_report_of_an_empirical_p_out_of_range_exits_1_naming_the_key_path(
        self, cli_files, tmp_path, capsys, crossings, s_converged, message
    ):
        argv = [
            "bootstrap",
            "--data", str(cli_files / "data.csv"),
            "--spec", str(cli_files / "spec.json"),
            "--S", "25",
            "--out", str(tmp_path / "fit"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        doc = read_json(tmp_path / "fit" / "results.json")
        doc["bootstrap"]["empirical_p"]["b_tt"] = {"crossings": crossings, "s_converged": s_converged}
        path = tmp_path / "results.json"
        write_json(doc, path)
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "rerender")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: malformed results file: bootstrap.empirical_p.b_tt.{message}\n"
        assert captured.out == ""

    def test_a_program_error_in_report_leaves_main_with_its_traceback(self, cli_files, tmp_path, capsys, monkeypatch):
        # The results file is checked before the table is rendered, outside any handler.
        run_estimate(cli_files, tmp_path / "fit")
        capsys.readouterr()

        def broken(*args, **kwargs):
            raise TypeError("bug inside format_table")

        monkeypatch.setattr(cli_module, "format_table", broken)
        argv = ["report", "--results", str(tmp_path / "fit" / "results.json"), "--out", str(tmp_path / "rerender")]
        with pytest.raises(TypeError, match="bug inside format_table"):
            main(argv)
        assert "error:" not in capsys.readouterr().err

    def test_a_program_error_in_spec_validation_leaves_main_with_its_traceback(
        self, cli_files, tmp_path, capsys, monkeypatch
    ):
        def broken(self):
            raise ZeroDivisionError("bug inside validate")

        monkeypatch.setattr(model.ModelSpec, "validate", broken)
        with pytest.raises(ZeroDivisionError, match="bug inside validate"):
            run_estimate(cli_files, tmp_path)
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, change, message",
        [
            (
                "spec.json",
                lambda doc: doc["parameters"][0].update(fixed="false"),
                'malformed model file: parameters[0].fixed must be true or false, got "false"',
            ),
            (
                "mc_size.json",
                lambda doc: doc.update(n_persons=True),
                "malformed experiment config: n_persons must be a whole number, got true",
            ),
        ],
        ids=["spec-fixed-text", "config-count-bool"],
    )
    def test_a_value_of_the_wrong_type_exits_1_naming_its_key_path(
        self, cli_files, tmp_path, capsys, monkeypatch, name, change, message
    ):
        # "false" once fixed asc_bus at 0 and exited 0 with a table without it.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the input was checked")

        monkeypatch.setattr(cli_module, "multi_start", no_fit)
        monkeypatch.setattr(montecarlo_module, "_size_power_cell", no_fit)
        doc = read_json(cli_files / name)
        change(doc)
        path = tmp_path / name
        write_json(doc, path)
        if name == "spec.json":
            argv = ["estimate", "--data", str(cli_files / "data.csv"), "--spec", str(path)]
        else:
            argv = ["montecarlo", "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("scale", [1e200, 1e6, 1e3])
    def test_an_attribute_too_large_for_the_kernel_exits_1_naming_it(self, cli_files, tmp_path, capsys, scale):
        # At 1e200 the BHHH fallback once met an overflowed matrix and left a
        # traceback. The check refuses no smaller scale: at 1e6 the Hessian is
        # too ill-conditioned, which exits 2 as it did before the check.
        data = load_dataset(cli_files / "data.csv")
        data.attributes["cost"] = data.attributes["cost"] * scale
        save_dataset(data, tmp_path / "scaled.csv")
        spec = read_json(cli_files / "spec.json")
        for p in spec["parameters"]:
            p["start"] = p["start"] / scale if p["name"] == "b_cost" else p["start"]
        write_json(spec, tmp_path / "spec.json")
        argv = ["estimate", "--data", str(tmp_path / "scaled.csv"), "--spec", str(tmp_path / "spec.json")]
        code = main([*argv, "--out", str(tmp_path / "scaled")])
        err = capsys.readouterr().err
        if scale == 1e200:
            assert code == 1
            assert err.startswith("error: attribute 'cost' is too large") and err.count("\n") == 1
            assert list((tmp_path / "scaled").iterdir()) == []
            return
        if scale == 1e6:
            assert code == 2 and err.startswith("identification failure: the Hessian is singular")
            return
        assert code == 0 and err == ""
        assert run_estimate(cli_files, tmp_path / "base") == 0
        scaled, base = (read_json(tmp_path / d / "results.json")["estimates"] for d in ("scaled", "base"))
        assert scaled["b_cost"] * scale == pytest.approx(base["b_cost"], rel=1e-6)
        assert scaled["b_tt"] == pytest.approx(base["b_tt"], rel=1e-6)
