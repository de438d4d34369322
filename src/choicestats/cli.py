"""Command line interface.

Subcommands: estimate, bootstrap, montecarlo, report. Every run writes its
outputs plus a manifest into the output directory (--out flag, else the
CHOICESTATS_OUTDIR environment variable, else the working directory). The
results JSON is the source of truth; rendered tables are derived views, and
the `report` subcommand re-renders them without recomputation.

Exit codes: 0 success, 1 input error, 2 identification failure,
3 non-convergence. All randomness funnels through --seed; rerunning a
command with the same flags reproduces every output byte for byte at any
--jobs setting (the manifest timestamp aside).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bootstrap import (
    EmpiricalPValue,
    bootstrap_covariance,
    bootstrap_run,
    empirical_p_value,
    hpd_interval,
    quantile_interval,
    save_draws,
)
from .covariance import covariance_set, standard_errors
from .dataio import (
    encode_matrix,
    load_dataset,
    load_model_spec,
    model_spec_to_doc,
    read_json,
    write_json,
)
from .errors import (
    ConvergenceError,
    CovarianceError,
    DataError,
    IdentificationError,
    NestingError,
    SpecMismatchError,
)
from .estimation import (
    STATUS_CONVERGED,
    STATUS_SINGULAR_HESSIAN,
    EstimationOptions,
    estimate_design,
    multi_start,
)
from .inference import asymptotic_ci, t_test, wald_test
from .model import build_design
from .montecarlo import (
    ExperimentConfig,
    coverage_experiment,
    save_rows,
    size_and_power_experiment,
)
from .reporting import Column, ReportOptions, bic, format_table, rho_bar_squared

OUTDIR_ENV = "CHOICESTATS_OUTDIR"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTIFICATION = 2
EXIT_NONCONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # identification failures here, so usage errors map to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser():
    parser = _Parser(prog="choicestats", description=__doc__)
    parser.add_argument("--version", action="version", version=f"choicestats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        if data:
            p.add_argument("--data", required=True, help="long-format choice data CSV")
            p.add_argument("--spec", required=True, help="model specification JSON")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (at least 1)")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--stars", action="store_true", help="append significance stars (needs --se or --t)")
        p.add_argument("--se", action="store_true", help="show standard-error columns")
        p.add_argument("--t", action="store_true", help="show t-ratio columns")

    p_est = sub.add_parser("estimate", help="fit the model; tests, intervals, fit metrics")
    common(p_est)
    p_est.add_argument("--ci-level", type=float, default=0.95)
    p_est.add_argument(
        "--sided",
        choices=("one", "two", "auto"),
        default="auto",
        help="one: declared parameter direction; two: two-sided; auto: direction of the estimate",
    )
    p_est.add_argument("--starts", type=_positive_int, default=1, help="number of optimisation starts")

    p_boot = sub.add_parser("bootstrap", help="person-level bootstrap intervals and p-values")
    common(p_boot)
    p_boot.add_argument("--ci-level", type=float, default=0.95)
    p_boot.add_argument("--S", type=int, default=400, dest="s_samples", help="bootstrap replicates")
    p_boot.add_argument("--starts", type=_positive_int, default=1)

    p_mc = sub.add_parser("montecarlo", help="size/power or coverage experiment from a config")
    p_mc.add_argument("--config", required=True, help="experiment configuration JSON")
    common(p_mc, data=False)
    # No default: only a seed given on the command line overrides the config's.
    p_mc.set_defaults(seed=None)

    p_rep = sub.add_parser("report", help="re-render tables from an existing results JSON")
    p_rep.add_argument("--results", required=True, help="results.json from estimate or bootstrap")
    common(p_rep, data=False)
    return parser


def _outdir(args):
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir, args, output_paths):
    options = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command",) and v is not None
    }
    write_json(
        {
            "command": args.command,
            "data_path": getattr(args, "data", None),
            "spec_path": getattr(args, "spec", None),
            "config_path": getattr(args, "config", None),
            "options": options,
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "output_paths": sorted(str(p) for p in output_paths),
        },
        outdir / "manifest.json",
    )


def _sidedness_for(param, flag):
    if flag == "two":
        return "two_sided"
    if flag == "one" and param.alternative in ("less", "greater"):
        return param.alternative
    if flag == "one":
        # No declared direction to honour; fall back to the estimate's sign.
        return "auto"
    return param.alternative if param.alternative != "auto" else "auto"


def _fit_data(args):
    spec = load_model_spec(args.spec)
    design = build_design(load_dataset(args.data), spec)
    options = EstimationOptions(n_starts=args.starts, seed=args.seed)
    if options.n_starts > 1:
        try:
            best, runs = multi_start(design, options)
        except ConvergenceError as exc:
            # No start converged; the best partial fit (ll_hat is always finite) is reported.
            best, runs = max(exc.runs, key=lambda r: r.ll_hat), list(exc.runs)
    else:
        best, runs = estimate_design(design, options), None
    return spec, design, options, best, runs


def _estimation_failure_exit(args, outdir, result):
    """Write partial results for a failed fit, then report it; exit 2 or 3."""
    write_json(
        {
            "command": args.command,
            "status": result.status,
            "estimates": result.params_dict(),
            "ll_hat": result.ll_hat,
            "gradient_norm": result.gradient_norm,
            "iterations": result.iterations,
        },
        outdir / "results.json",
    )
    _write_manifest(outdir, args, ["results.json"])
    if result.status == STATUS_SINGULAR_HESSIAN:
        report = result.identification
        print("identification failure: the Hessian is singular", file=sys.stderr)
        if report is not None:
            print(
                f"  rank {report.hessian_rank}, condition number "
                f"{report.condition_number:.3e}, suspect parameters: "
                f"{', '.join(report.suspect_parameters) or 'none isolated'}",
                file=sys.stderr,
            )
        return EXIT_IDENTIFICATION
    print(f"estimation did not converge (status: {result.status})", file=sys.stderr)
    return EXIT_NONCONVERGENCE


def _table_ext(fmt):
    return {"text": "txt", "csv": "csv", "json": "json"}[fmt]


def _promote_uniform_sidedness(columns, rows):
    # A p column whose cells all share one sidedness is annotated in the
    # header instead of on every cell.
    for i, column in enumerate(columns):
        if column.kind != "p":
            continue
        tags = {row[column.key][1] for row in rows if row.get(column.key) is not None}
        if len(tags) == 1:
            tag = tags.pop()
            columns[i] = Column(column.key, column.header, "p", sidedness=tag)
            for row in rows:
                if row.get(column.key) is not None:
                    row[column.key] = row[column.key][0]
    return columns


def _render_and_write(columns, rows, args, outdir, written):
    options = ReportOptions(include_stars=args.stars)
    table = format_table(columns, rows, options, fmt=args.format)
    path = outdir / f"table.{_table_ext(args.format)}"
    path.write_text(table, encoding="utf-8")
    written.append(path.name)
    sys.stdout.write(table)


### estimate

def _estimate_results_doc(args, spec, design, best, runs, covs, tests, intervals):
    names = best.names
    doc = {
        "command": "estimate",
        "model": model_spec_to_doc(spec),
        "n_obs": design.n_obs,
        "n_persons": design.n_persons,
        "estimates": best.params_dict(),
        "ll_hat": best.ll_hat,
        "ll_0": best.ll_0,
        "gradient_norm": best.gradient_norm,
        "iterations": best.iterations,
        "status": best.status,
        "start_index": best.start_index,
        "hessian": encode_matrix(best.hessian_at_optimum, names, names),
        "fit": {
            "k": len(names),
            "rho_bar_squared": rho_bar_squared(best.ll_hat, best.ll_0, len(names)),
            "bic": bic(best.ll_hat, len(names), design.n_obs),
            "bic_n": design.n_obs,
        },
        "covariance": {
            "grouping": covs.grouping,
            "classical": encode_matrix(covs.classical, names, names),
            "bhhh": encode_matrix(covs.bhhh, names, names),
            "robust": encode_matrix(covs.robust, names, names),
            "se": {
                "classical": dict(zip(names, map(float, covs.se_classical))),
                "bhhh": dict(zip(names, map(float, covs.se_bhhh))),
                "robust": dict(zip(names, map(float, covs.se_robust))),
            },
        },
        "tests": tests,
        "intervals": intervals,
        "ci_level": args.ci_level,
    }
    if runs is not None:
        doc["multi_start"] = {
            "n_starts": len(runs),
            "ll_by_start": [r.ll_hat if r.converged else None for r in runs],
            "status_by_start": [r.status for r in runs],
            "best_start": best.start_index,
        }
    return doc


def _declared_order(doc):
    # JSON objects round-trip with sorted keys, so row order comes from the
    # parameter declaration list, which is an order-preserving array.
    declared = [p["name"] for p in doc["model"]["parameters"]]
    return [name for name in declared if name in doc["estimates"]]


def _estimate_table_rows(doc):
    rows = []
    se = doc["covariance"]["se"]
    for name in _declared_order(doc):
        value = doc["estimates"][name]
        tests = doc["tests"][name]
        ivs = doc["intervals"][name]
        rows.append(
            {
                "parameter": name,
                "estimate": value,
                "se_classical": se["classical"][name],
                "se_robust": se["robust"][name],
                "t_classical": tests["t_classical"]["statistic"],
                "t_robust": tests["t_robust"]["statistic"],
                "p_classical": (tests["t_classical"]["p_value"], tests["t_classical"]["sidedness"]),
                "p_robust": (tests["t_robust"]["p_value"], tests["t_robust"]["sidedness"]),
                "ci_lower": ivs["classical"]["lower"],
                "ci_upper": ivs["classical"]["upper"],
                "ci_lower_robust": ivs["robust"]["lower"],
                "ci_upper_robust": ivs["robust"]["upper"],
            }
        )
    return rows


def _estimate_columns(args, rows):
    columns = [Column("parameter", "parameter", "label"), Column("estimate", "estimate", "estimate")]
    if args.se:
        columns += [Column("se_classical", "se (classical)", "se"), Column("se_robust", "se (robust)", "se")]
    if args.t:
        columns += [Column("t_classical", "t (classical)", "t"), Column("t_robust", "t (robust)", "t")]
    columns += [Column("p_classical", "p (classical)", "p"), Column("p_robust", "p (robust)", "p")]
    columns += [
        Column("ci_lower", "ci lower", "estimate"),
        Column("ci_upper", "ci upper", "estimate"),
        Column("ci_lower_robust", "ci lower (robust)", "estimate"),
        Column("ci_upper_robust", "ci upper (robust)", "estimate"),
    ]
    return _promote_uniform_sidedness(columns, rows)


def cmd_estimate(args):
    outdir = _outdir(args)
    spec, design, options, best, runs = _fit_data(args)
    if best.status != STATUS_CONVERGED:
        return _estimation_failure_exit(args, outdir, best)

    covs = covariance_set(
        best.hessian_at_optimum,
        design.score(best.params_hat, grouping="person"),
        names=best.names,
    )
    tests = {}
    intervals = {}
    for i, name in enumerate(best.names):
        param = spec.parameter(name)
        estimate_i = float(best.params_hat[i])
        sided = _sidedness_for(param, args.sided)
        tests[name] = {
            "t_classical": asdict(t_test(estimate_i, covs.se_classical[i], param.h0_value, sided)),
            "t_robust": asdict(t_test(estimate_i, covs.se_robust[i], param.h0_value, sided)),
            "wald": asdict(wald_test(estimate_i, covs.se_classical[i], param.h0_value)),
        }
        intervals[name] = {
            "classical": asdict(asymptotic_ci(estimate_i, covs.se_classical[i], args.ci_level)),
            "robust": asdict(
                asymptotic_ci(
                    estimate_i, covs.se_robust[i], args.ci_level, method="asymptotic_robust"
                )
            ),
        }
    doc = _estimate_results_doc(args, spec, design, best, runs, covs, tests, intervals)
    written = []
    write_json(doc, outdir / "results.json")
    written.append("results.json")
    rows = _estimate_table_rows(doc)
    _render_and_write(_estimate_columns(args, rows), rows, args, outdir, written)
    _write_manifest(outdir, args, written)
    return EXIT_OK


### bootstrap

def _bootstrap_table_rows(doc):
    boot = doc["bootstrap"]
    rows = []
    for name in _declared_order(doc):
        estimate_i = doc["estimates"][name]
        ivs = boot["intervals"][name]
        row = {
            "parameter": name,
            "estimate": estimate_i,
            "se_bootstrap": boot["se"][name],
            "t_bootstrap": estimate_i / boot["se"][name],
            "quantile_lower": ivs["quantile"]["lower"],
            "quantile_upper": ivs["quantile"]["upper"],
            "hpd_lower": ivs["hpd"]["lower"],
            "hpd_upper": ivs["hpd"]["upper"],
            "quantile_asymmetry": ivs["quantile"]["asymmetry_index"],
            "hpd_asymmetry": ivs["hpd"]["asymmetry_index"],
        }
        ep = boot["empirical_p"].get(name)
        if ep is not None:
            row["p_empirical"] = (EmpiricalPValue(ep["crossings"], ep["s_converged"]), "empirical")
        rows.append(row)
    return rows


def _bootstrap_columns(args, rows):
    columns = [
        Column("parameter", "parameter", "label"),
        Column("estimate", "estimate", "estimate"),
    ]
    if args.se:
        columns.append(Column("se_bootstrap", "se (bootstrap)", "se"))
    if args.t:
        columns.append(Column("t_bootstrap", "t (bootstrap)", "t"))
    columns += [
        Column("quantile_lower", "quantile lower", "estimate"),
        Column("quantile_upper", "quantile upper", "estimate"),
        Column("hpd_lower", "hpd lower", "estimate"),
        Column("hpd_upper", "hpd upper", "estimate"),
        Column("p_empirical", "p (empirical)", "p"),
        Column("quantile_asymmetry", "asym (quantile)", "ratio"),
        Column("hpd_asymmetry", "asym (hpd)", "ratio"),
    ]
    return _promote_uniform_sidedness(columns, rows)


def cmd_bootstrap(args):
    outdir = _outdir(args)
    spec, design, options, best, _ = _fit_data(args)
    if best.status != STATUS_CONVERGED:
        return _estimation_failure_exit(args, outdir, best)

    result = bootstrap_run(
        design,
        options,
        s_samples=args.s_samples,
        base_seed=args.seed,
        jobs=args.jobs,
        mle=best.params_hat,
    )
    written = []
    save_draws(result, outdir / "draws.csv")
    written.append("draws.csv")

    cov = bootstrap_covariance(result)
    se_boot = standard_errors(cov, result.names)
    draws = result.converged_draws()
    names = result.names
    intervals = {}
    empirical = {}
    for i, name in enumerate(names):
        estimate_i = float(best.params_hat[i])
        quantile = quantile_interval(draws[:, i], args.ci_level, estimate_i)
        hpd = hpd_interval(draws[:, i], args.ci_level, estimate_i)
        se_ci = asymptotic_ci(
            estimate_i, se_boot[i], args.ci_level, method="asymptotic_bootstrap_se"
        )
        intervals[name] = {
            "quantile": asdict(quantile),
            "hpd": asdict(hpd),
            "asymptotic_bootstrap_se": asdict(se_ci),
        }
        if estimate_i != 0.0:
            ep = empirical_p_value(draws[:, i], estimate_i)
            empirical[name] = {
                "crossings": ep.crossings,
                "s_converged": ep.s_converged,
                "value": ep.value,
                "display": ep.display(),
            }

    doc = {
        "command": "bootstrap",
        "model": model_spec_to_doc(spec),
        "n_obs": design.n_obs,
        "n_persons": design.n_persons,
        "estimates": best.params_dict(),
        "ll_hat": best.ll_hat,
        "ci_level": args.ci_level,
        "bootstrap": {
            "s_samples": result.s_samples,
            "base_seed": result.base_seed,
            "n_failed": result.n_failed,
            "s_converged": result.s_converged,
            "mean": dict(zip(names, (float(v) for v in draws.mean(axis=0)))),
            "covariance": encode_matrix(cov, names, names),
            "se": dict(zip(names, map(float, se_boot))),
            "intervals": intervals,
            "empirical_p": empirical,
        },
    }
    write_json(doc, outdir / "results.json")
    written.append("results.json")

    rows = _bootstrap_table_rows(doc)
    _render_and_write(_bootstrap_columns(args, rows), rows, args, outdir, written)
    _write_manifest(outdir, args, written)
    return EXIT_OK


### montecarlo and report

def cmd_montecarlo(args):
    outdir = _outdir(args)
    doc = read_json(args.config)
    kind = doc.get("experiment", "size_power")
    try:
        config = ExperimentConfig.from_dict(doc)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed experiment config: {exc!r}", source=args.config) from exc
    if args.seed is not None:
        config.seed = args.seed
    if kind == "size_power":
        report = size_and_power_experiment(config, jobs=args.jobs)
    elif kind == "coverage":
        report = coverage_experiment(config, jobs=args.jobs)
    else:
        raise DataError(
            f"unknown experiment kind '{kind}' (expected size_power or coverage)",
            source=args.config,
        )
    write_json({"config": config.to_dict(), "report": report.to_doc()}, outdir / "report.json")
    save_rows(report.rows, outdir / "replications.csv")
    _write_manifest(outdir, args, ["report.json", "replications.csv"])

    for record in report.rates:
        effect = "" if record["effect"] is None else f" effect={record['effect']:g}"
        rate, rate_se = (
            "n/a" if v is None else f"{v:.4f}" for v in (record["rate"], record["rate_se"])
        )
        print(f"{record['method']}{effect}: rate {rate} (se {rate_se}, n={record['n']})")
    return EXIT_OK


def cmd_report(args):
    outdir = _outdir(args)
    doc = read_json(args.results)
    command = doc.get("command")
    if doc.get("status", STATUS_CONVERGED) != STATUS_CONVERGED:
        raise DataError(f"partial {command} results (status {doc['status']}) hold no table", args.results)
    if command == "estimate":
        rows = _estimate_table_rows(doc)
        columns = _estimate_columns(args, rows)
    elif command == "bootstrap":
        rows = _bootstrap_table_rows(doc)
        columns = _bootstrap_columns(args, rows)
    else:
        raise DataError(
            f"results file has no renderable command tag (got {command!r})",
            source=args.results,
        )
    written = []
    _render_and_write(columns, rows, args, outdir, written)
    _write_manifest(outdir, args, written)
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < getattr(args, "ci_level", 0.5) < 1.0:
        parser.error(f"argument --ci-level: must be in (0, 1), got {args.ci_level}")
    handlers = {
        "estimate": cmd_estimate,
        "bootstrap": cmd_bootstrap,
        "montecarlo": cmd_montecarlo,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (DataError, SpecMismatchError, NestingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (IdentificationError, CovarianceError) as exc:
        print(f"identification failure: {exc}", file=sys.stderr)
        return EXIT_IDENTIFICATION


if __name__ == "__main__":
    sys.exit(main(argv=None))
