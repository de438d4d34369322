"""Person-level bootstrap: resampling, replicate estimation, covariance,
empirical and highest-density intervals, empirical p-values, asymmetry.

Resampling draws whole persons with replacement, so within-person
correlation across repeated choices survives into the replicates; a
replicate is the compiled design weighted by each person's draw count.
Each replicate's seed derives deterministically from (base_seed, replicate
index); results are identical under any degree of parallelism.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IdentificationError
from .estimation import STATUS_CONVERGED, EstimationOptions, _start_vector, estimate_design
from .inference import ConfidenceInterval
from .linalg import solve_symmetric_positive_definite
from .util import Failure, parallel_map, seed_from

#: Below this many draws, empirical quantiles are too coarse to report.
MIN_DRAWS = 10

# Positions within 1e-9 of an integer use exact order statistics.
_INTEGRAL_TOLERANCE = 1e-9


@dataclass
class BootstrapResult:
    s_samples: int
    base_seed: int | None
    draws: np.ndarray
    converged: np.ndarray
    n_failed: int
    names: list[str]
    statuses: tuple[str, ...]

    def converged_draws(self):
        return self.draws[self.converged]

    @property
    def s_converged(self):
        return int(self.converged.sum())


def _one_step_start(mle, terms, counts):
    """The first Newton iterate from mle of the design weighted by counts,
    mle + (sum_i c_i I_i)^-1 sum_i c_i s_i, from DesignArrays.person_terms
    rows, or mle itself when that information is not positive definite."""
    k = mle.size
    summed = counts @ terms
    information = summed[k:].reshape(k, k)
    information = (information + information.T) / 2.0
    try:
        return mle + solve_symmetric_positive_definite(information, summed[:k])
    except IdentificationError:
        return mle


def _bootstrap_replicate(design, options, base_seed, mle, terms, s):
    n = design.n_persons
    drawn = np.random.default_rng(seed_from(base_seed, s)).integers(0, n, n)
    counts = np.bincount(drawn, minlength=n)
    start = _one_step_start(mle, terms, counts)
    result = estimate_design(design.weighted(counts), options, start=start)
    if not result.converged:
        raise ConvergenceError(result.status)
    return result.params_hat


def bootstrap_run(design, options=None, s_samples=400, base_seed=0, jobs=1, mle=None):
    """Estimate on s_samples person-level resamples of a compiled design.

    Replicate s draws n_persons persons with replacement, with a seed
    derived from (base_seed, s), and fits the design weighted by each
    person's draw count. It starts one Newton step from the full-sample
    estimate ``mle`` (estimated here from the declared start values when not
    given): the step its own first iteration would take, found from each
    person's score and information at ``mle``, one pass per run. A
    failed replicate is kept as a NaN row, flagged not-converged, with the
    failure reason as its status (a fit's own status when it does not
    converge), and excluded downstream.
    """
    if s_samples < 2:
        raise ValueError(f"s_samples must be >= 2, got {s_samples}")
    options = options or EstimationOptions()
    if mle is None:
        mle = estimate_design(design, options).params_hat
    mle = _start_vector(design, mle)
    terms = design.person_terms(design.probabilities(mle), information=True)
    args = (design, options, base_seed, mle, terms * design.person_weights[:, None])
    outcomes = parallel_map(_bootstrap_replicate, args, s_samples, jobs)
    failed = [isinstance(out, Failure) for out in outcomes]
    nan_row = np.full(design.k, np.nan)
    return BootstrapResult(
        s_samples=int(s_samples),
        base_seed=int(base_seed),
        draws=np.vstack([nan_row if bad else out for out, bad in zip(outcomes, failed)]),
        converged=~np.array(failed),
        n_failed=sum(failed),
        names=list(design.free_names),
        statuses=tuple(out.reason if bad else STATUS_CONVERGED for out, bad in zip(outcomes, failed)),
    )


def bootstrap_covariance(result):
    """Sample covariance of the converged draws (divisor S_conv - 1)."""
    draws = result.converged_draws()
    if draws.shape[0] < 2:
        raise ValueError(
            f"need at least 2 converged replicates for a covariance, got {draws.shape[0]}"
        )
    centered = draws - draws.mean(axis=0)
    cov = centered.T @ centered / (draws.shape[0] - 1)
    return (cov + cov.T) / 2.0


def _check_draws(draws):
    draws = np.asarray(draws, dtype=float).ravel()
    draws = draws[np.isfinite(draws)]
    if draws.size < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws, got {draws.size}")
    return np.sort(draws)


def _position_value(sorted_draws, position, notes):
    # 1-indexed position into the order statistics, linearly interpolated.
    s = sorted_draws.size
    if position < 1.0 or position > s:
        notes.append("requested level needs positions outside the sample; bound clamped")
        position = min(max(position, 1.0), float(s))
    nearest = round(position)
    if abs(position - nearest) <= _INTEGRAL_TOLERANCE:
        return float(sorted_draws[int(nearest) - 1])
    low = math.floor(position)
    frac = position - low
    return float(sorted_draws[low - 1] + frac * (sorted_draws[low] - sorted_draws[low - 1]))


def quantile_interval(draws, level, center):
    """Empirical CI from the alpha/2 and 1 - alpha/2 quantiles of the draws.

    With k = alpha/2 * S integral, the bounds are the k-th and (S-k+1)-th
    order statistics exactly; otherwise linear interpolation between
    neighbouring order statistics, with a note saying so. The asymmetry
    index is computed against the supplied center (the full-data MLE).
    """
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    sorted_draws = _check_draws(draws)
    s = sorted_draws.size
    alpha = 1.0 - level
    k = alpha / 2.0 * s
    notes = []
    if abs(k - round(k)) > _INTEGRAL_TOLERANCE:
        notes.append(
            f"alpha/2 * S = {k:.6g} is non-integral; bounds linearly "
            "interpolated between order statistics"
        )
    lower = _position_value(sorted_draws, k, notes)
    upper = _position_value(sorted_draws, (1.0 - alpha / 2.0) * s + 1.0, notes)
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        level=level,
        method="bootstrap_quantile",
        asymmetry_index=asymmetry_index(lower, float(center), upper) if upper > lower else 0.0,
        notes=tuple(notes),
    )


def hpd_interval(draws, level, center):
    """Narrowest interval spanned by ceil(level * S) consecutive order
    statistics, level * S read to quantile_interval's 1e-9 tolerance; ties
    broken toward the lower window start."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    sorted_draws = _check_draws(draws)
    s = sorted_draws.size
    m = max(math.ceil(level * s - _INTEGRAL_TOLERANCE), 2)
    widths = sorted_draws[m - 1 :] - sorted_draws[: s - m + 1]
    best = int(np.argmin(widths))
    lower = float(sorted_draws[best])
    upper = float(sorted_draws[best + m - 1])
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        level=level,
        method="hpd",
        asymmetry_index=asymmetry_index(lower, float(center), upper) if upper > lower else 0.0,
    )


@dataclass(frozen=True)
class EmpiricalPValue:
    """Share of draws on the other side of zero from the MLE.

    A zero count means "no crossing observed in S draws", reported as the
    resolution bound "< 1/S" rather than an exact 0.
    """

    crossings: int
    s_converged: int

    @property
    def value(self):
        return self.crossings / self.s_converged

    @property
    def below_resolution(self):
        return self.crossings == 0

    def display(self, digits=3):
        if self.below_resolution:
            return f"< {1.0 / self.s_converged:.{digits}g}"
        return f"{self.value:.{digits}f}"


def empirical_p_value(draws, mle):
    """Empirical one-sided p: draws with sign opposite the MLE, over S_conv.

    Draws exactly at zero count as crossings (the conservative reading).
    """
    mle = float(mle)
    if mle == 0.0:
        raise ValueError("empirical p-value is undefined for an MLE of exactly 0")
    sorted_draws = _check_draws(draws)
    if mle > 0.0:
        crossings = int(np.sum(sorted_draws <= 0.0))
    else:
        crossings = int(np.sum(sorted_draws >= 0.0))
    return EmpiricalPValue(crossings=crossings, s_converged=sorted_draws.size)


def asymmetry_index(lower, center, upper):
    """((U - M) - (M - L)) / (U - L); 0 for an interval centred on M."""
    lower = float(lower)
    upper = float(upper)
    if not lower < upper:
        raise ValueError(f"bounds must satisfy lower < upper, got [{lower}, {upper}]")
    center = float(center)
    return ((upper - center) - (center - lower)) / (upper - lower)


def save_draws(result, path):
    """Persist draws to CSV: replicate, converged, one column per parameter."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "converged"] + list(result.names))
        for s in range(result.s_samples):
            writer.writerow(
                [s, int(result.converged[s])] + [repr(float(v)) for v in result.draws[s]]
            )


def load_draws(path):
    """Rebuild a BootstrapResult from a draws CSV (base seed unknown)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header[2:]
        draws = []
        converged = []
        for row in reader:
            converged.append(bool(int(row[1])))
            draws.append([float(v) for v in row[2:]])
    draws = np.asarray(draws, dtype=float)
    converged = np.asarray(converged, dtype=bool)
    return BootstrapResult(
        s_samples=draws.shape[0],
        base_seed=None,
        draws=draws,
        converged=converged,
        n_failed=int(draws.shape[0] - converged.sum()),
        names=names,
        statuses=tuple(STATUS_CONVERGED if ok else "failed" for ok in converged),
    )
