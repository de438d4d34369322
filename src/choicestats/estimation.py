"""Maximum likelihood estimation.

Newton ascent on the sample log-likelihood with the analytic Hessian,
step-halving line search, a BHHH fallback direction, multi-start against
local optima, and an eigenvalue-based identification check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DivergenceWarning,
    EstimationDisagreementWarning,
    IdentificationError,
    ProbabilityUnderflowWarning,
    StartPointError,
)
from .linalg import (
    require_symmetric,
    solve_positive_definite,
    solve_symmetric_positive_definite,
)
from .model import build_design
from .util import seed_from

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SINGULAR_HESSIAN = "singular_hessian"
STATUS_LINE_SEARCH_FAILURE = "line_search_failure"

#: Any |coefficient| beyond this at termination is treated as divergence
#: (empirically unidentified parameters drift toward +-infinity).
DIVERGENCE_BOUND = 50.0

#: Converged multi-start runs whose best log-likelihoods spread by more than
#: this are flagged as disagreeing.
DISAGREEMENT_TOLERANCE = 1e-4

#: Trial points per line search (the full step, then halvings), and the
#: standard deviation of the noise on the start values of later multi-starts.
STEP_HALVING_MAX = 25
START_PERTURBATION_SCALE = 1.0


@dataclass(frozen=True)
class EstimationOptions:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-6
    n_starts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.n_starts < 1 or not self.gradient_tolerance > 0:
            raise ValueError("max_iterations and n_starts must be >= 1, gradient_tolerance > 0")


@dataclass(frozen=True)
class IdentificationReport:
    hessian_rank: int
    condition_number: float
    is_identified: bool
    suspect_parameters: tuple[str, ...]


@dataclass
class EstimationResult:
    params_hat: np.ndarray
    names: list[str]
    ll_hat: float
    ll_0: float
    gradient_norm: float
    hessian_at_optimum: np.ndarray
    iterations: int
    status: str
    start_index: int = 0
    identification: IdentificationReport | None = None

    @property
    def converged(self):
        return self.status == STATUS_CONVERGED

    @property
    def diverged(self):
        return bool(np.any(np.abs(self.params_hat) > DIVERGENCE_BOUND))

    def params_dict(self):
        return {name: float(v) for name, v in zip(self.names, self.params_hat)}


def check_identification(hessian, threshold=1e-10, names=None):
    """Eigenvalue-based identification report for a (negative) Hessian.

    identified <=> min|eigenvalue| / max|eigenvalue| > threshold and full
    rank. Suspects are the parameters loading heaviest on eigenvectors of
    near-zero eigenvalues.
    """
    h = require_symmetric(np.asarray(hessian, dtype=float), name="hessian")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    magnitude = np.abs(eigenvalues)
    largest = float(magnitude.max())
    if largest == 0.0:
        rank = 0
        condition = np.inf
        near_null = np.ones(len(eigenvalues), dtype=bool)
    else:
        near_null = magnitude <= threshold * largest
        rank = int(np.sum(~near_null))
        smallest = float(magnitude.min())
        condition = np.inf if smallest == 0.0 else largest / smallest
    identified = (not np.any(near_null)) and rank == h.shape[0]
    suspects = []
    if names is None:
        names = [f"param_{i}" for i in range(h.shape[0])]
    for idx in np.flatnonzero(near_null):
        loadings = np.abs(eigenvectors[:, idx])
        heavy = loadings >= 0.5 * loadings.max()
        for pos in np.flatnonzero(heavy):
            if names[pos] not in suspects:
                suspects.append(names[pos])
    return IdentificationReport(
        hessian_rank=rank,
        condition_number=condition,
        is_identified=bool(identified),
        suspect_parameters=tuple(suspects),
    )


def _ascent_direction(design, params, gradient, hessian):
    # Newton when -H is positive definite, else the BHHH direction built
    # from person-grouped score outer products. DesignArrays.derivatives
    # returns a bitwise-symmetric Hessian, so only finiteness is checked.
    if not np.isfinite(hessian).all():
        raise ValueError("negative hessian contains non-finite entries")
    try:
        return solve_symmetric_positive_definite(-hessian, gradient, name="negative hessian")
    except IdentificationError:
        return solve_positive_definite(design.bhhh(params), gradient, name="bhhh matrix")


def _start_vector(design, start):
    """A float copy of ``start``, or of the declared start values when it is None."""
    params = design.start_values.copy() if start is None else np.asarray(start, dtype=float).copy()
    if params.shape != (design.k,):
        raise ValueError(f"start vector must have length {design.k}, got shape {params.shape}")
    return params


def estimate_design(design, options=None, start=None, start_index=0):
    """Run the optimiser against an already compiled design.

    Each trial point costs one softmax pass: the line search takes the
    log-likelihood from the point's probabilities, and at the accepted point
    the same array gives the gradient and Hessian for the next step and, at
    the end, the result.
    """
    options = options or EstimationOptions()
    params = _start_vector(design, start)
    p = design.probabilities(params)
    ll, floored = design.chosen_log_likelihood(p)
    if not np.isfinite(ll):
        raise StartPointError("log-likelihood is not finite at the start point")

    status = STATUS_MAX_ITERATIONS
    iterations = 0
    while True:
        gradient, hessian = design.derivatives(p)
        if np.abs(gradient).max() <= options.gradient_tolerance:
            status = STATUS_CONVERGED
            break
        if iterations == options.max_iterations:
            break
        try:
            direction = _ascent_direction(design, params, gradient, hessian)
        except IdentificationError:
            status = STATUS_SINGULAR_HESSIAN
            break
        # Near the optimum the full step's gain falls below the rounding of
        # ll before the gradient test fires. So the first candidate, full
        # step first, that moves the point without losing more than that
        # rounding is accepted; the gradient test still decides convergence.
        slack = 1e-13 * max(1.0, abs(ll))
        for halving in range(STEP_HALVING_MAX):
            candidate = params + 0.5**halving * direction
            p = design.probabilities(candidate)
            ll_candidate, floored_candidate = design.chosen_log_likelihood(p)
            moves = np.any(candidate != params)
            if moves and np.isfinite(ll_candidate) and ll_candidate >= ll - slack:
                break
        else:
            status = STATUS_LINE_SEARCH_FAILURE
            break
        params, ll, floored = candidate, ll_candidate, floored_candidate
        iterations += 1

    if floored:
        warnings.warn(
            "chosen-alternative probability underflowed at the final point",
            ProbabilityUnderflowWarning,
            stacklevel=2,
        )

    identification = None
    if status == STATUS_SINGULAR_HESSIAN:
        identification = check_identification(hessian, names=design.free_names)

    result = EstimationResult(
        params_hat=params,
        names=list(design.free_names),
        ll_hat=ll,
        ll_0=design.null_log_likelihood(),
        gradient_norm=float(np.abs(gradient).max()),
        hessian_at_optimum=hessian,
        iterations=iterations,
        status=status,
        start_index=start_index,
        identification=identification,
    )
    if result.diverged:
        runaway = [
            name
            for name, v in zip(result.names, result.params_hat)
            if abs(v) > DIVERGENCE_BOUND
        ]
        warnings.warn(
            f"coefficients {runaway} exceed |{DIVERGENCE_BOUND:g}|; the model "
            "may be empirically unidentified on this sample",
            DivergenceWarning,
            stacklevel=2,
        )
    return result


def estimate(dataset, spec, options=None):
    """Maximise the sample log-likelihood for ``spec`` on ``dataset``."""
    return estimate_design(build_design(dataset, spec), options)


def multi_start(design, options=None):
    """Estimate a compiled design from several starting points; return
    (best, all runs).

    Start 0 uses the declared start values; later starts perturb them with
    seeded normal noise. The best run is the converged one with the highest
    log-likelihood. Converged runs disagreeing by more than 1e-4 in their
    final log-likelihood raise EstimationDisagreementWarning.
    """
    options = options or EstimationOptions()
    runs = []
    for i in range(options.n_starts):
        if i == 0:
            start = design.start_values.copy()
        else:
            rng = np.random.default_rng(seed_from(options.seed, i))
            start = design.start_values + START_PERTURBATION_SCALE * rng.standard_normal(design.k)
        runs.append(estimate_design(design, options, start=start, start_index=i))

    converged = [r for r in runs if r.converged]
    if not converged:
        raise ConvergenceError(
            "no start converged", statuses=tuple(r.status for r in runs), runs=runs
        )
    lls = [r.ll_hat for r in converged]
    if max(lls) - min(lls) > DISAGREEMENT_TOLERANCE:
        warnings.warn(
            f"converged starts disagree: log-likelihood spread "
            f"{max(lls) - min(lls):.3e} exceeds {DISAGREEMENT_TOLERANCE:g}",
            EstimationDisagreementWarning,
            stacklevel=2,
        )
    best = max(converged, key=lambda r: r.ll_hat)
    return best, runs
