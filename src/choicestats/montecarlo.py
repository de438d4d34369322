"""Replicated simulate-estimate-test experiments.

Two experiment shapes over a common config:
  size_and_power_experiment  rejection rates of the test battery (t with
                             classical and robust errors, Wald, LR, LM)
                             across effect sizes, effect 0 giving the
                             empirical type I error;
  coverage_experiment        how often classical / robust / bootstrap CIs
                             contain the true coefficient.

Both run one replication routine: replication r draws with a seed derived
from (seed, r), never from the effect size, so power at effect 0 is computed
on exactly the draws that measured size, and results are identical at any
job count. It simulates once for all its effects, which differ only in their
choices, and runs the experiment's cell on each design; each cell fails or
counts on its own, an unconverged fit with its status as the reason. A
size/power cell's restricted fit holds the target at 0 in the general
design, and its last pass gives the LM test.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .bootstrap import MIN_DRAWS, bootstrap_covariance, bootstrap_record, bootstrap_run
from .covariance import fit_covariance, standard_errors
from .errors import ConvergenceError, DataError
from .estimation import estimate_design
from .inference import asymptotic_record, lm_test_at, lr_test, normal_cdf, resolve_sidedness
from .model import GeneratorSpec, ModelSpec, simulate_designs
from .util import Failure, _attempt, from_json, parallel_map, seed_from

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


@dataclass(kw_only=True)
class ExperimentConfig:
    spec: ModelSpec
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
    true_params: dict[str, float]
    n_persons: int
    obs_per_person: int = 1
    replications: int
    alpha: float = 0.05
    target_parameter: str
    effect_sizes: tuple[float, ...] = ()
    ci_level: float = 0.95
    seed: int = 0
    bootstrap_s: int = 0

    def validate(self, size_power=False, where="experiment config"):
        """Raise DataError "<where>: <problem>" at the first value out of its
        range; a spec or generator that does not fit raises SpecMismatchError."""
        self.spec.validate()
        self.generator.check_against(self.spec)
        free = self.spec.free_names()
        missing = [name for name in free if name not in self.true_params]
        target = self.target_parameter
        for ok, problem in (
            (target in free, f"target parameter '{target}' is not a free parameter"),
            (not missing, f"true_params missing free parameters: {missing}"),
            # alpha 0 is allowed as the degenerate never-reject case.
            (0.0 <= self.alpha < 1.0, f"alpha must be in [0, 1), got {self.alpha}"),
            (self.replications >= 50, f"replications must be >= 50, got {self.replications}"),
            (0.0 < self.ci_level < 1.0, f"ci_level must be in (0, 1), got {self.ci_level}"),
            (min(self.n_persons, self.obs_per_person) >= 1, "n_persons and obs_per_person must be positive"),
            (self.bootstrap_s >= 0, f"bootstrap_s must be >= 0, got {self.bootstrap_s}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (not size_power or 0.0 in self.effect_sizes,
             "effect_sizes must include 0, whose rejection rates are the size"),
        ):
            if not ok:
                raise DataError(f"{where}: {problem}")

    @staticmethod
    def from_dict(doc, where="experiment config"):
        """The config that :meth:`to_dict` wrote as ``doc``; its one other key
        allowed, ``experiment``, names the kind that the command line runs."""
        return from_json(ExperimentConfig, {k: v for k, v in doc.items() if k != "experiment"}, where)

    def to_dict(self):
        doc = asdict(self)
        return {**doc, "generator": self.generator.to_dict(), "effect_sizes": list(self.effect_sizes)}


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


def _fit(design, truth):
    """The fit of a simulated design from its true parameters, and its covariances.
    The MNL log-likelihood is concave, so the estimate depends on the start only
    within the convergence tolerance, and the truth is the closest start the experiment knows."""
    result = estimate_design(design, start=truth)
    if not result.converged:
        raise ConvergenceError(result.status)
    return result, fit_covariance(design, result)


def _rep(config, cell, effects, rep):
    """``cell(config, rep, effect, design, truth)`` per effect, in effect order, each a row
    or a Failure. Effect e puts the target's truth at e (None keeps true_params); all
    the designs come from one draw at the rep's seed, and a failed draw fails every cell."""
    free, target = config.spec.free_names(), config.target_parameter
    truths = [[config.true_params[n] if e is None or n != target else e for n in free] for e in effects]
    designs = _attempt(
        simulate_designs, config.spec, truths, config.generator, config.n_persons, config.obs_per_person,
        seed_from(config.seed, rep),
    )
    if isinstance(designs, Failure):
        return [designs] * len(truths)
    return [_attempt(cell, config, rep, e, d, t) for e, d, t in zip(effects, designs, truths)]


def _tally(reps, effects, prefix, methods):
    """(rows, rates, failures) of the cells ``_rep`` returned: a failed cell becomes
    a row flagged not converged, and each (effect, method) a rate over the
    non-None ``prefix + method`` flags of the converged rows."""
    rows = [
        {"rep": rep, **({} if effect is None else {"effect": effect}), "converged": False}
        if isinstance(row, Failure) else row
        for rep, cells in enumerate(reps)
        for effect, row in zip(effects, cells)
    ]
    rates = []
    for effect in effects:
        good = [r for r in rows if r["converged"] and r.get("effect") == effect]
        for method in methods:
            flags = [r[prefix + method] for r in good if r.get(prefix + method) is not None]
            # A rate with no cells behind it is None (JSON null), not NaN.
            rate = float(np.mean(flags)) if flags else None
            se = math.sqrt(rate * (1.0 - rate) / len(flags)) if flags else None
            rates.append({"effect": effect, "method": method, "rate": rate, "rate_se": se, "n": len(flags)})
    return rows, rates, sum(not r["converged"] for r in rows)


### size and power

def _size_power_cell(direction, config, rep, effect, design, truth):
    target_col = config.spec.free_names().index(config.target_parameter)
    general, covs = _fit(design, truth)
    start = general.params_hat.copy()
    start[target_col] = 0.0
    restricted = estimate_design(design, start=start, hold=(target_col,))
    if not restricted.converged:
        raise ConvergenceError(restricted.status)

    estimate = float(general.params_hat[target_col])
    se_c, se_r = float(covs.se_classical[target_col]), float(covs.se_robust[target_col])
    # The tests estimate writes for the target at null 0, one-sided toward direction and two-sided.
    one, two = (
        asymptotic_record(estimate, se_c, se_r, 0.0, s, config.ci_level)[0] for s in (direction, "two_sided")
    )
    row = {
        "rep": rep,
        "effect": effect,
        "converged": True,
        "estimate": estimate,
        "se_classical": se_c,
        "se_robust": se_r,
        "t_classical": one["t_classical"].statistic,
        "p_t_classical_one": one["t_classical"].p_value,
        "p_t_classical_two": two["t_classical"].p_value,
        "p_t_robust_one": one["t_robust"].p_value,
        "p_t_robust_two": two["t_robust"].p_value,
        "p_wald": two["wald"].p_value,
        "p_lr": lr_test(general.ll_hat, restricted.ll_hat).p_value,
        "p_lm": lm_test_at(design, restricted).p_value,
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
    config.validate(size_power=True)
    # One-sided rates test as estimate --sided one does, but no declared direction gives
    # 'greater': auto would chase the estimate's sign and double the one-sided size.
    side = config.spec.parameter(config.target_parameter).alternative
    direction = resolve_sidedness(side, "one", undeclared="greater")
    notes = () if direction == side else (
        f"target '{config.target_parameter}' declares sidedness '{side}'; one-sided rates use "
        "direction 'greater'",
    )

    effects = config.effect_sizes
    reps = parallel_map(_rep, (config, partial(_size_power_cell, direction), effects), config.replications, jobs)
    rows, rates, failures = _tally(reps, effects, "reject_", REJECTION_METHODS)
    sampling = {}
    for effect in effects:
        good = [r for r in rows if r["effect"] == effect and r["converged"]]
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

def _coverage_cell(config, rep, effect, design, truth):
    target_col = config.spec.free_names().index(config.target_parameter)
    true_value = float(config.true_params[config.target_parameter])
    result, covs = _fit(design, truth)
    estimate = float(result.params_hat[target_col])
    row = {"rep": rep, "converged": True, "estimate": estimate}
    row["params"] = [float(v) for v in result.params_hat]
    se_c, se_r = float(covs.se_classical[target_col]), float(covs.se_robust[target_col])
    intervals = asymptotic_record(estimate, se_c, se_r, true_value, "two_sided", config.ci_level)[1]
    for (method, ci), se in zip(intervals.items(), (se_c, se_r)):
        row[f"se_{method}"] = se
        row[f"ci_lower_{method}"] = ci.lower
        row[f"ci_upper_{method}"] = ci.upper
        row[f"covered_{method}"] = bool(ci.lower <= true_value <= ci.upper)
    if config.bootstrap_s >= 2:
        boot = bootstrap_run(
            design,
            s_samples=config.bootstrap_s,
            base_seed=seed_from(config.seed, rep, 1),
            mle=result.params_hat,
        )
        if boot.s_converged < MIN_DRAWS:
            # Too few converged replicates for an interval; the rep still counts.
            row["covered_bootstrap"] = None
        else:
            se_boot = standard_errors(bootstrap_covariance(boot))[target_col]
            draws = boot.converged_draws()[:, target_col]
            ci = bootstrap_record(draws, estimate, se_boot, config.ci_level)[0]["quantile"]
            row["ci_lower_bootstrap"] = ci.lower
            row["ci_upper_bootstrap"] = ci.upper
            row["covered_bootstrap"] = bool(ci.lower <= true_value <= ci.upper)
    return row


def coverage_experiment(config, jobs=1):
    """How often the level-C intervals contain the true target coefficient."""
    config.validate()
    methods = ["classical", "robust"] + (["bootstrap"] if config.bootstrap_s >= 2 else [])
    reps = parallel_map(_rep, (config, _coverage_cell, (None,)), config.replications, jobs)
    rows, rates, failures = _tally(reps, (None,), "covered_", methods)
    sampling = {}
    good = [r for r in rows if r["converged"]]
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
