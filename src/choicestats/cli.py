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
from collections import Counter
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial, reduce
from operator import getitem
from pathlib import Path
from typing import TypedDict

from . import __version__
from .bootstrap import (
    MIN_DRAWS,
    EmpiricalPValue,
    bootstrap_covariance,
    bootstrap_run,
    empirical_p_value,
    hpd_interval,
    quantile_interval,
    save_draws,
)
from .covariance import covariance_set, standard_errors
from .dataio import encode_matrix, load_dataset, load_model_spec, read_json, write_json
from .errors import (
    ChoiceStatsError,
    ConvergenceError,
    CovarianceError,
    DataError,
    IdentificationError,
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
from .util import from_json

OUTDIR_ENV = "CHOICESTATS_OUTDIR"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTIFICATION = 2
EXIT_NONCONVERGENCE = 3

#: Status of the partial results of a converged fit whose covariance matrices
#: cannot be formed.
STATUS_SINGULAR_COVARIANCE = "singular_covariance"
#: Status of the partial results of a bootstrap with fewer than MIN_DRAWS converged replicates.
STATUS_TOO_FEW_REPLICATES = "too_few_converged_replicates"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # identification failures here, so usage errors map to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _write_run(args, outdir, outputs):
    """Write the (name, content) pairs of ``outputs`` into ``outdir`` in order,
    then manifest.json, whose ``output_paths`` are exactly those names. A dict
    is written as JSON, a string as text, and any other content is a writer
    that takes the path, such as ``partial(save_draws, result)``."""
    for name, content in outputs:
        if isinstance(content, dict):
            write_json(content, outdir / name)
        elif isinstance(content, str):
            (outdir / name).write_text(content, encoding="utf-8")
        else:
            content(outdir / name)
    write_json(
        {
            "command": args.command,
            "data_path": getattr(args, "data", None),
            "spec_path": getattr(args, "spec", None),
            "config_path": getattr(args, "config", None),
            "options": {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None},
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "output_paths": sorted(name for name, _ in outputs),
        },
        outdir / "manifest.json",
    )


def _sidedness_for(param, flag):
    if flag == "two":
        return "two_sided"
    if flag == "one" and param.alternative not in ("less", "greater"):
        # No declared direction to honour; fall back to the estimate's sign.
        return "auto"
    return param.alternative


def _results_head(args, fit, status):
    """The results.json keys of every fit. A partial document, whose status is
    not converged, holds only these, and ``report`` refuses it."""
    return {
        "command": args.command,
        "status": status,
        "estimates": fit.params_dict(),
        "ll_hat": fit.ll_hat,
        "gradient_norm": fit.gradient_norm,
        "iterations": fit.iterations,
    }


def _fit_data(args, outdir):
    """Load, compile and fit the data. A fit that does not converge writes its
    partial results, then raises IdentificationError for a singular Hessian
    and ConvergenceError otherwise."""
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
    if best.status == STATUS_CONVERGED:
        return spec, design, options, best, runs
    _write_run(args, outdir, [("results.json", _results_head(args, best, best.status))])
    if best.status != STATUS_SINGULAR_HESSIAN:
        raise ConvergenceError(f"estimation did not converge (status: {best.status})")
    report = best.identification  # always set on a full fit with a singular Hessian
    raise IdentificationError(
        f"the Hessian is singular\n  rank {report.hessian_rank}, condition number "
        f"{report.condition_number:.3e}, suspect parameters: "
        f"{', '.join(report.suspect_parameters) or 'none isolated'}"
    )


def _table(args, doc):
    """(file name, text) of ``doc``'s table as ``args`` asks for it. Every table
    command renders here, so ``report`` re-renders the table the command printed."""
    rows_of_doc, columns = _TABLES[doc["command"]][:2]
    shown = [c for c in columns if (c.kind != "se" or args.se) and (c.kind != "t" or args.t)]
    table = format_table(shown, rows_of_doc(doc), ReportOptions(include_stars=args.stars), args.format)
    return f"table.{'txt' if args.format == 'text' else args.format}", table


### estimate

def _estimate_results_doc(args, spec, design, best, runs, covs, tests, intervals):
    names = best.names
    doc = {
        **_results_head(args, best, best.status),
        "model": asdict(spec),
        "n_obs": design.n_obs,
        "n_persons": design.n_persons,
        "ll_0": best.ll_0,
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


_ESTIMATE_COLUMNS = (
    Column("parameter", "parameter", "label"), Column("estimate", "estimate", "estimate"),
    Column("se_classical", "se (classical)", "se"), Column("se_robust", "se (robust)", "se"),
    Column("t_classical", "t (classical)", "t"), Column("t_robust", "t (robust)", "t"),
    Column("p_classical", "p (classical)", "p"), Column("p_robust", "p (robust)", "p"),
    Column("ci_lower", "ci lower", "estimate"),
    Column("ci_upper", "ci upper", "estimate"),
    Column("ci_lower_robust", "ci lower (robust)", "estimate"),
    Column("ci_upper_robust", "ci upper (robust)", "estimate"),
)


def cmd_estimate(args, outdir):
    spec, design, options, best, runs = _fit_data(args, outdir)
    try:
        covs = covariance_set(
            best.hessian_at_optimum,
            design.score(best.params_hat, grouping="person"),
            names=best.names,
        )
    except (IdentificationError, CovarianceError):
        # The fit converged, but its covariance cannot be formed: exit 2.
        head = _results_head(args, best, STATUS_SINGULAR_COVARIANCE)
        _write_run(args, outdir, [("results.json", head)])
        raise
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
    name, table = _table(args, doc)
    _write_run(args, outdir, [("results.json", doc), (name, table)])
    sys.stdout.write(table)


### bootstrap

def _bootstrap_table_rows(doc):
    boot = doc["bootstrap"]
    h0 = {p["name"]: p["h0_value"] for p in doc["model"]["parameters"]}
    rows = []
    for name in _declared_order(doc):
        estimate_i = doc["estimates"][name]
        ivs = boot["intervals"][name]
        row = {
            "parameter": name,
            "estimate": estimate_i,
            "se_bootstrap": boot["se"][name],
            "t_bootstrap": (estimate_i - h0[name]) / boot["se"][name],
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


_BOOTSTRAP_COLUMNS = (
    Column("parameter", "parameter", "label"),
    Column("estimate", "estimate", "estimate"),
    Column("se_bootstrap", "se (bootstrap)", "se"),
    Column("t_bootstrap", "t (bootstrap)", "t"),
    Column("quantile_lower", "quantile lower", "estimate"),
    Column("quantile_upper", "quantile upper", "estimate"),
    Column("hpd_lower", "hpd lower", "estimate"),
    Column("hpd_upper", "hpd upper", "estimate"),
    Column("p_empirical", "p (empirical)", "p"),
    Column("quantile_asymmetry", "asym (quantile)", "ratio"),
    Column("hpd_asymmetry", "asym (hpd)", "ratio"),
)


def cmd_bootstrap(args, outdir):
    spec, design, options, best, _ = _fit_data(args, outdir)
    result = bootstrap_run(
        design,
        options,
        s_samples=args.s_samples,
        base_seed=args.seed,
        jobs=args.jobs,
        mle=best.params_hat,
    )
    draws_csv = ("draws.csv", partial(save_draws, result))
    if result.s_converged < MIN_DRAWS:
        head = _results_head(args, best, STATUS_TOO_FEW_REPLICATES)
        _write_run(args, outdir, [draws_csv, ("results.json", head)])
        tally = dict(sorted(Counter(result.statuses).items()))
        raise ConvergenceError(f"bootstrap: fewer than {MIN_DRAWS} converged replicates; by status: {tally}")

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
        "model": asdict(spec),
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
    name, table = _table(args, doc)
    _write_run(args, outdir, [draws_csv, ("results.json", doc), (name, table)])
    sys.stdout.write(table)


# The parts of the results documents that the tables read.
_Model = TypedDict("_Model", {"parameters": list[TypedDict("_Parameter", {"name": str, "h0_value": float})]})
_Interval = TypedDict("_Interval", {"lower": float, "upper": float})
_Test = TypedDict("_Test", {"statistic": float, "p_value": float, "sidedness": str})
_BootInterval = TypedDict("_BootInterval", {"lower": float, "upper": float, "asymmetry_index": float})
_EstimateDoc = TypedDict("_EstimateDoc", {
    "command": str, "model": _Model, "estimates": dict[str, float],
    "covariance": TypedDict("_Covariance", {
        "se": TypedDict("_Se", {"classical": dict[str, float], "robust": dict[str, float]}),
    }),
    "tests": dict[str, TypedDict("_Tests", {"t_classical": _Test, "t_robust": _Test})],
    "intervals": dict[str, TypedDict("_Intervals", {"classical": _Interval, "robust": _Interval})],
})
_BootIntervals = TypedDict("_BootIntervals", {"quantile": _BootInterval, "hpd": _BootInterval})
_BootstrapDoc = TypedDict("_BootstrapDoc", {
    "command": str, "model": _Model, "estimates": dict[str, float],
    "bootstrap": TypedDict("_Bootstrap", {
        "se": dict[str, float],
        "intervals": dict[str, _BootIntervals],
        "empirical_p": dict[str, TypedDict("_EmpiricalP", {"crossings": int, "s_converged": int})],
    }),
})

#: Per command: the table rows of its results document, every column its
#: table can show, the part of the document the rows read, and the key paths
#: in it that must hold an entry for each parameter of the table.
_TABLES = {
    "estimate": (
        _estimate_table_rows, _ESTIMATE_COLUMNS, _EstimateDoc,
        ("covariance.se.classical", "covariance.se.robust", "tests", "intervals"),
    ),
    "bootstrap": (
        _bootstrap_table_rows, _BOOTSTRAP_COLUMNS, _BootstrapDoc, ("bootstrap.se", "bootstrap.intervals"),
    ),
}


### montecarlo, report and the command line

def cmd_montecarlo(args, outdir):
    doc = read_json(args.config)
    kind = doc.get("experiment", "size_power")
    if kind not in ("size_power", "coverage"):
        raise DataError(f"unknown experiment kind '{kind}' (expected size_power or coverage)", args.config)
    # The whole config is checked here, before any cell runs.
    where = f"{args.config}: malformed experiment config"
    config = ExperimentConfig.from_dict(doc, where)
    if args.seed is not None:
        config.seed = args.seed
    config.validate(size_power=kind == "size_power", where=where)
    run = size_and_power_experiment if kind == "size_power" else coverage_experiment
    report = run(config, jobs=args.jobs)
    _write_run(args, outdir, [
        ("report.json", {"config": config.to_dict(), "report": report.to_doc()}),
        ("replications.csv", partial(save_rows, report.rows)),
    ])
    for record in report.rates:
        effect = "" if record["effect"] is None else f" effect={record['effect']:g}"
        rate, rate_se = (
            "n/a" if v is None else f"{v:.4f}" for v in (record["rate"], record["rate_se"])
        )
        print(f"{record['method']}{effect}: rate {rate} (se {rate_se}, n={record['n']})")


def cmd_report(args, outdir):
    doc = read_json(args.results)
    command = doc.get("command")
    if doc.get("status", STATUS_CONVERGED) != STATUS_CONVERGED:
        raise DataError(f"partial {command} results (status {doc['status']}) hold no table", args.results)
    if not isinstance(command, str) or command not in _TABLES:
        raise DataError(
            f"results file has no renderable command tag (got {command!r})",
            source=args.results,
        )
    _, _, schema, per_parameter = _TABLES[command]
    where = f"{args.results}: malformed results file"
    doc = from_json(schema, doc, where)
    for path in per_parameter:
        entries = reduce(getitem, path.split("."), doc)
        absent = [name for name in _declared_order(doc) if name not in entries]
        if absent:
            raise DataError(f"{where}: {path} has no entry for parameter '{absent[0]}'")
    _check_ranges(doc, where)
    name, table = _table(args, doc)
    _write_run(args, outdir, [(name, table)])
    sys.stdout.write(table)


def _check_ranges(doc, where):
    """Raise DataError, naming the key path, on a value the table cannot show:
    a p-value outside [0, 1], or an empirical p-value whose crossings are not
    a share of at least one converged replicate."""
    for name, tests in doc.get("tests", {}).items():
        for kind, test in tests.items():
            if not 0.0 <= test["p_value"] <= 1.0:
                raise DataError(
                    f"{where}: tests.{name}.{kind}.p_value must be in [0, 1], got {test['p_value']!r}"
                )
    for name, ep in doc.get("bootstrap", {}).get("empirical_p", {}).items():
        path = f"{where}: bootstrap.empirical_p.{name}"
        if ep["s_converged"] < 1:
            raise DataError(f"{path}.s_converged must be at least 1, got {ep['s_converged']}")
        if not 0 <= ep["crossings"] <= ep["s_converged"]:
            raise DataError(
                f"{path}.crossings must be in [0, s_converged = {ep['s_converged']}], got {ep['crossings']}"
            )


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports text int() refuses as "invalid int value"
    return parse


_OPTIONS = {
    "--data": dict(required=True, help="long-format choice data CSV"),
    "--spec": dict(required=True, help="model specification JSON"),
    "--config": dict(required=True, help="experiment configuration JSON"),
    "--results": dict(required=True, help="results.json from estimate or bootstrap"),
    "--out": dict(help=f"output directory (default ${OUTDIR_ENV} or .)"),
    "--seed": dict(type=_int_at_least(0), default=0),
    "--starts": dict(type=_int_at_least(1), default=1, help="number of optimisation starts"),
    "--ci-level": dict(type=float, default=0.95),
    "--sided": dict(
        choices=("one", "two", "auto"),
        default="auto",
        help="one: declared one-sided direction, else the estimate's sign; two: two-sided; "
        "auto: each parameter's declared alternative, whose default auto is the estimate's sign",
    ),
    "--S": dict(type=_int_at_least(2), default=400, dest="s_samples", help="bootstrap replicates"),
    "--jobs": dict(type=_int_at_least(1), default=1, help="worker processes (at least 1)"),
    "--format": dict(choices=("text", "csv", "json"), default="text"),
    "--se": dict(action="store_true", help="show standard-error columns"),
    "--t": dict(action="store_true", help="show t-ratio columns"),
    "--stars": dict(action="store_true", help="append significance stars (needs --se or --t)"),
}

#: Per subcommand: its handler, its help line and the options the handler reads.
_COMMANDS = {
    # --jobs is read by no step of estimate; perfbench's traced runs pass it to every command.
    "estimate": (cmd_estimate, "fit the model; tests, intervals, fit metrics",
                 "--data --spec --out --seed --starts --ci-level --sided --jobs --format --se --t --stars"),
    "bootstrap": (cmd_bootstrap, "person-level bootstrap intervals and p-values",
                  "--data --spec --out --seed --starts --ci-level --S --jobs --format --se --t --stars"),
    "montecarlo": (cmd_montecarlo, "size/power or coverage experiment from a config",
                   "--config --out --seed --jobs"),
    "report": (cmd_report, "re-render tables from an existing results JSON",
               "--results --out --format --se --t --stars"),
}


def _build_parser():
    parser = _Parser(prog="choicestats", description=__doc__)
    parser.add_argument("--version", action="version", version=f"choicestats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        # No abbreviations: a flag a subcommand does not take would pass as a prefix of one it does.
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
    # No default: only a seed given on the command line overrides the config's.
    sub.choices["montecarlo"].set_defaults(seed=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < getattr(args, "ci_level", 0.5) < 1.0:
        parser.error(f"argument --ci-level: must be in (0, 1), got {args.ci_level}")
    if getattr(args, "stars", False) and not (args.se or args.t):
        # Refused before any work: format_table would only refuse the finished table.
        print("error: --stars needs --se or --t (stars without uncertainty)", file=sys.stderr)
        return EXIT_INPUT
    # The output directory exists before the command reads any input.
    outdir = Path(args.out or os.environ.get(OUTDIR_ENV) or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        _COMMANDS[args.command][0](args, outdir)
    except (IdentificationError, CovarianceError) as exc:
        print(f"identification failure: {exc}", file=sys.stderr)
        return EXIT_IDENTIFICATION
    except ConvergenceError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ChoiceStatsError as exc:
        # Any other exception is a program error and leaves with its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main(argv=None))
