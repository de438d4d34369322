"""Replicated simulate-estimate-test experiments.

Two experiment shapes over a common config:
  size_and_power_experiment  rejection rates of the test battery (t with
                             classical and robust errors, Wald, LR, LM)
                             across effect sizes, effect 0 giving the
                             empirical type I error;
  coverage_experiment        how often classical / robust / bootstrap CIs
                             contain the true coefficient.

Replication r always draws with a seed derived from (seed, r), never from
the effect size, so power at effect 0 is computed on exactly the draws that
measured size, and results are identical at any job count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bootstrap import MIN_DRAWS, bootstrap_run, quantile_interval
from .covariance import covariance_set
from .errors import ChoiceStatsError
from .estimation import EstimationOptions, estimate_design
from .inference import asymptotic_ci, lm_test_at, lr_test, normal_cdf, t_test, wald_test
from .model import GeneratorSpec, simulate_design
from .util import Failure, parallel_map, reject_unknown_keys, seed_from

### config

REJECTION_METHODS = (
    "t_classical_one",
    "t_classical_two",
    "t_robust_one",
    "t_robust_two",
    "wald",
    "lr",
    "lm",
)


@dataclass
class ExperimentConfig:
    spec: object
    generator: GeneratorSpec
    true_params: dict
    n_persons: int
    obs_per_person: int
    replications: int
    alpha: float
    target_parameter: str
    effect_sizes: tuple = ()
    ci_level: float = 0.95
    seed: int = 0
    bootstrap_s: int = 0

    def validate(self):
        self.spec.validate()
        free = self.spec.free_names()
        if self.target_parameter not in free:
            raise ValueError(f"target parameter '{self.target_parameter}' is not a free parameter")
        missing = [name for name in free if name not in self.true_params]
        if missing:
            raise ValueError(f"true_params missing free parameters: {missing}")
        self.generator.check_against(self.spec)
        # alpha 0 is allowed as the degenerate never-reject case.
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.replications < 50:
            raise ValueError(f"replications must be >= 50, got {self.replications}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if self.n_persons < 1 or self.obs_per_person < 1:
            raise ValueError("n_persons and obs_per_person must be positive")
        if self.bootstrap_s < 0:
            raise ValueError(f"bootstrap_s must be >= 0, got {self.bootstrap_s}")

    @staticmethod
    def from_dict(doc):
        from .dataio import model_spec_from_doc

        # to_dict's keys, plus the experiment kind that the command line reads.
        allowed = {f.name for f in fields(ExperimentConfig)} | {"experiment"}
        reject_unknown_keys(doc, allowed, "experiment config")
        required = ("spec", "true_params", "n_persons", "replications", "target_parameter")
        missing = [key for key in required if key not in doc]
        if missing:
            raise ValueError(f"experiment config is missing required keys: {missing}")
        return ExperimentConfig(
            spec=model_spec_from_doc(doc["spec"]),
            generator=GeneratorSpec.from_dict(doc.get("generator", {})),
            true_params={k: float(v) for k, v in doc["true_params"].items()},
            n_persons=int(doc["n_persons"]),
            obs_per_person=int(doc.get("obs_per_person", 1)),
            replications=int(doc["replications"]),
            alpha=float(doc.get("alpha", 0.05)),
            target_parameter=str(doc["target_parameter"]),
            effect_sizes=tuple(float(e) for e in doc.get("effect_sizes", ())),
            ci_level=float(doc.get("ci_level", 0.95)),
            seed=int(doc.get("seed", 0)),
            bootstrap_s=int(doc.get("bootstrap_s", 0)),
        )

    def to_dict(self):
        from .dataio import model_spec_to_doc

        return {
            "spec": model_spec_to_doc(self.spec),
            "generator": self.generator.to_dict(),
            "true_params": dict(self.true_params),
            "n_persons": self.n_persons,
            "obs_per_person": self.obs_per_person,
            "replications": self.replications,
            "alpha": self.alpha,
            "target_parameter": self.target_parameter,
            "effect_sizes": list(self.effect_sizes),
            "ci_level": self.ci_level,
            "seed": self.seed,
            "bootstrap_s": self.bootstrap_s,
        }


@dataclass
class MonteCarloReport:
    kind: str
    replications_run: int
    failures: int
    rates: list
    sampling: dict
    rows: list = field(default_factory=list)
    notes: tuple = ()

    def rate(self, method, effect=None):
        for record in self.rates:
            if record["method"] == method and (effect is None or record["effect"] == effect):
                return record["rate"]
        raise KeyError(f"no rate recorded for method '{method}', effect {effect}")

    def to_doc(self):
        # rows go to their own CSV; the JSON report carries the aggregates
        return {
            "kind": self.kind,
            "replications_run": self.replications_run,
            "failures": self.failures,
            "rates": self.rates,
            "sampling": self.sampling,
            "notes": list(self.notes),
        }


def _declared_direction(spec, target):
    side = spec.parameter(target).alternative
    if side in ("less", "greater"):
        return side, ()
    # auto would chase the estimate's sign and double the one-sided size;
    # a fixed direction keeps the size experiment honest.
    return "greater", (
        f"target '{target}' declares sidedness '{side}'; one-sided rates use "
        "direction 'greater'",
    )


def _fit_replicate(config, true_params, rep):
    """Simulate replication ``rep`` at ``true_params``, fit it, and take its covariances.

    The fit starts at the true parameters. The MNL log-likelihood is concave,
    so the estimate depends on the start only within the convergence
    tolerance, and the truth is the closest start the experiment knows.
    """
    truth = [true_params[name] for name in config.spec.free_names()]
    design = simulate_design(
        config.spec,
        truth,
        config.generator,
        config.n_persons,
        config.obs_per_person,
        seed_from(config.seed, rep),
    )
    result = estimate_design(design, EstimationOptions(), start=truth)
    if not result.converged:
        raise ChoiceStatsError("replication did not converge")
    covs = covariance_set(
        result.hessian_at_optimum,
        design.score(result.params_hat, grouping="person"),
        names=design.free_names,
    )
    return design, result, covs


### size and power

def _size_power_cell(config, direction, index):
    # Cell (rep, effect) sits at index rep * n_effects + e; every effect of a
    # rep draws from the same seed.
    rep, e = divmod(index, len(config.effect_sizes))
    effect = config.effect_sizes[e]
    target_col = config.spec.free_names().index(config.target_parameter)
    design, general, covs = _fit_replicate(
        config, {**config.true_params, config.target_parameter: effect}, rep
    )
    start = np.delete(general.params_hat, target_col)
    restricted = estimate_design(design.fix_column(target_col, 0.0), start=start)
    if not restricted.converged:
        raise ChoiceStatsError("restricted model did not converge")

    estimate = float(general.params_hat[target_col])
    se_c = float(covs.se_classical[target_col])
    se_r = float(covs.se_robust[target_col])
    tilde = np.insert(restricted.params_hat, target_col, 0.0)
    row = {
        "rep": rep,
        "effect": effect,
        "converged": True,
        "estimate": estimate,
        "se_classical": se_c,
        "se_robust": se_r,
        "t_classical": estimate / se_c,
        "p_t_classical_one": t_test(estimate, se_c, 0.0, direction).p_value,
        "p_t_classical_two": t_test(estimate, se_c, 0.0, "two_sided").p_value,
        "p_t_robust_one": t_test(estimate, se_r, 0.0, direction).p_value,
        "p_t_robust_two": t_test(estimate, se_r, 0.0, "two_sided").p_value,
        "p_wald": wald_test(estimate, se_c, 0.0).p_value,
        "p_lr": lr_test(general.ll_hat, restricted.ll_hat, 1).p_value,
        "p_lm": lm_test_at(design, tilde, 1).p_value,
    }
    for method in REJECTION_METHODS:
        row[f"reject_{method}"] = bool(row[f"p_{method}"] < config.alpha)
    return row


def size_and_power_experiment(config, jobs=1):
    """Rejection rates of every test method at each effect size.

    Effect size 0 must be present: its rejection rates are the empirical
    type I error. Rejection is p < alpha; failed (rep, effect) cells are
    excluded from the denominators and counted.
    """
    config.validate()
    if not config.effect_sizes:
        raise ValueError("effect_sizes must not be empty")
    if 0.0 not in config.effect_sizes:
        raise ValueError("effect size 0 is required for size measurement")
    direction, notes = _declared_direction(config.spec, config.target_parameter)

    n_effects = len(config.effect_sizes)
    total = config.replications * n_effects
    rows = parallel_map(_size_power_cell, (config, direction), total, jobs)
    for i, row in enumerate(rows):
        if isinstance(row, Failure):
            effect = config.effect_sizes[i % n_effects]
            rows[i] = {"rep": i // n_effects, "effect": effect, "converged": False}

    rates = []
    sampling = {}
    failures = 0
    for effect in config.effect_sizes:
        cells = [r for r in rows if r["effect"] == effect]
        good = [r for r in cells if r["converged"]]
        failures += len(cells) - len(good)
        for method in REJECTION_METHODS:
            flags = [r[f"reject_{method}"] for r in good]
            rates.append({"effect": effect, "method": method, **_rate(flags)})
        if len(good) >= 50:
            mean, sd, gap = sampling_distribution_summary(np.array([[r["estimate"]] for r in good]))
            sampling[repr(effect)] = {
                "mean": float(mean[0]),
                "sd": float(sd[0]),
                "normality_gap": gap,
            }

    return MonteCarloReport(
        kind="size_power",
        replications_run=config.replications,
        failures=failures,
        rates=rates,
        sampling=sampling,
        rows=rows,
        notes=notes,
    )


### coverage

def _coverage_rep(config, rep):
    target_col = config.spec.free_names().index(config.target_parameter)
    true_value = float(config.true_params[config.target_parameter])
    design, result, covs = _fit_replicate(config, config.true_params, rep)
    estimate = float(result.params_hat[target_col])
    row = {"rep": rep, "converged": True, "estimate": estimate}
    row["params"] = [float(v) for v in result.params_hat]
    for method, se in (
        ("classical", float(covs.se_classical[target_col])),
        ("robust", float(covs.se_robust[target_col])),
    ):
        ci = asymptotic_ci(estimate, se, config.ci_level)
        row[f"se_{method}"] = se
        row[f"ci_lower_{method}"] = ci.lower
        row[f"ci_upper_{method}"] = ci.upper
        row[f"covered_{method}"] = bool(ci.lower <= true_value <= ci.upper)
    if config.bootstrap_s >= 2:
        boot = bootstrap_run(
            design,
            EstimationOptions(),
            s_samples=config.bootstrap_s,
            base_seed=seed_from(config.seed, rep, 1),
            mle=result.params_hat,
        )
        if boot.s_converged < MIN_DRAWS:
            # Too few converged replicates for an interval; the rep still counts.
            row["covered_bootstrap"] = None
        else:
            ci = quantile_interval(boot.converged_draws()[:, target_col], config.ci_level, estimate)
            row["ci_lower_bootstrap"] = ci.lower
            row["ci_upper_bootstrap"] = ci.upper
            row["covered_bootstrap"] = bool(ci.lower <= true_value <= ci.upper)
    return row


def coverage_experiment(config, jobs=1):
    """How often the level-C intervals contain the true target coefficient."""
    config.validate()
    rows = parallel_map(_coverage_rep, (config,), config.replications, jobs)
    for rep, row in enumerate(rows):
        if isinstance(row, Failure):
            rows[rep] = {"rep": rep, "converged": False}

    good = [r for r in rows if r["converged"]]
    failures = len(rows) - len(good)

    methods = ["classical", "robust"] + (["bootstrap"] if config.bootstrap_s >= 2 else [])
    rates = []
    for method in methods:
        flags = [r[f"covered_{method}"] for r in good if r.get(f"covered_{method}") is not None]
        rates.append({"effect": None, "method": method, **_rate(flags)})

    sampling = {}
    if len(good) >= 50:
        params = np.array([r["params"] for r in good])
        mean, sd, gap = sampling_distribution_summary(params)
        sampling = {
            "mean": {name: float(m) for name, m in zip(config.spec.free_names(), mean)},
            "sd": {name: float(s) for name, s in zip(config.spec.free_names(), sd)},
            "normality_gap": gap,
        }
    for row in rows:
        row.pop("params", None)

    return MonteCarloReport(
        kind="coverage",
        replications_run=config.replications,
        failures=failures,
        rates=rates,
        sampling=sampling,
        rows=rows,
    )


### aggregation helpers

def sampling_distribution_summary(draws):
    """Mean, sd, and a normality gap for replicated estimates.

    The gap is the largest absolute difference, over parameters, between the
    empirical CDF of the standardized draws and the standard normal CDF. It
    is reported as a description, never asserted against.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    if draws.shape[0] < 50:
        raise ValueError(f"need at least 50 replications, got {draws.shape[0]}")
    mean = draws.mean(axis=0)
    sd = draws.std(axis=0, ddof=1)
    n = draws.shape[0]
    gap = 0.0
    for col in range(draws.shape[1]):
        z = np.sort(draws[:, col] - mean[col])
        if sd[col] > 0.0:
            z = z / sd[col]
        cdf = np.array([normal_cdf(v) for v in z])
        above = np.abs(np.arange(1, n + 1) / n - cdf)
        below = np.abs(np.arange(0, n) / n - cdf)
        gap = max(gap, float(above.max()), float(below.max()))
    return mean, sd, gap


def _rate(flags):
    # A rate with no cells behind it is None (JSON null), not NaN.
    if not flags:
        return {"rate": None, "rate_se": None, "n": 0}
    rate = float(np.mean(flags))
    return {"rate": rate, "rate_se": math.sqrt(rate * (1.0 - rate) / len(flags)), "n": len(flags)}


def save_rows(rows, path):
    """Per-replication outcomes as CSV; missing cells render empty."""
    import csv

    fieldnames = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)
