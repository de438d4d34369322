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
from .linalg import near_null_space, require_symmetric, solve_positive_definite
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

#: A fit asked for its estimate only ends on a full Newton step whose
#: decrement lambda^2 = g'(-H)^-1 g is at most this. lambda bounds the step
#: in standard errors (|d_i| <= lambda se_i), and Newton converges
#: quadratically near the optimum, so the point after the step lies about
#: lambda^2, 1e-8 standard errors, from it. At the second point of the 1,600
#: bootstrap replicates of eight 500x4 panels, lambda^2 had median 7e-10,
#: 90th percentile 3e-8 and maximum 4e-6; 84% of the replicates stopped
#: there, and every step with lambda^2 <= 1.5e-7 led to a point with
#: |g|_inf < 1e-6, the gradient test's tolerance.
NEWTON_DECREMENT_TOLERANCE = 1e-8

#: A fit converges once the largest |gradient| entry is at most
#: GRADIENT_TOLERANCE, and stops with status max_iterations after
#: MAX_ITERATIONS accepted steps short of that.
MAX_ITERATIONS = 200
GRADIENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class IdentificationReport:
    hessian_rank: int
    condition_number: float
    is_identified: bool
    suspect_parameters: tuple[str, ...]


@dataclass
class PointEstimate:
    """Where a fit ended: the estimate, the iterations taken and the status."""

    params_hat: np.ndarray
    names: list[str]
    iterations: int
    status: str

    @property
    def converged(self):
        return self.status == STATUS_CONVERGED

    def params_dict(self):
        return {name: float(v) for name, v in zip(self.names, self.params_hat)}


@dataclass
class EstimationResult(PointEstimate):
    """A point estimate with the log-likelihood and derivatives at it."""

    ll_hat: float
    gradient_norm: float
    gradient: np.ndarray
    hessian_at_optimum: np.ndarray
    start_index: int = 0
    identification: IdentificationReport | None = None


def check_identification(hessian, names=None):
    """Eigenvalue-based identification report for a (negative) Hessian.

    identified <=> no eigenvalue is near-null in the sense of
    :func:`linalg.near_null_space`. Suspects are the parameters loading
    heaviest on the eigenvectors of near-null eigenvalues.
    """
    magnitude, eigenvectors, near_null = near_null_space(hessian, name="hessian")
    smallest = float(magnitude.min())
    condition = np.inf if smallest == 0.0 else float(magnitude.max()) / smallest
    suspects = []
    if names is None:
        names = [f"param_{i}" for i in range(magnitude.size)]
    for idx in np.flatnonzero(near_null):
        loadings = np.abs(eigenvectors[:, idx])
        heavy = loadings >= 0.5 * loadings.max()
        for pos in np.flatnonzero(heavy):
            if names[pos] not in suspects:
                suspects.append(names[pos])
    return IdentificationReport(
        hessian_rank=int(np.sum(~near_null)),
        condition_number=condition,
        is_identified=not near_null.any(),
        suspect_parameters=tuple(suspects),
    )


def _ascent_direction(design, params, gradient, hessian, block=...):
    # (direction, newton): Newton when -H is positive definite, else the BHHH
    # direction built from person-grouped score outer products, cut by
    # ``block`` (np.ix_ of the free entries, or ... for all) as gradient and hessian are.
    # DesignArrays.derivatives returns a bitwise-symmetric Hessian, so only
    # finiteness is checked.
    if not np.isfinite(hessian).all():
        raise ValueError("negative hessian contains non-finite entries")
    try:
        return solve_positive_definite(-hessian, gradient, name="negative hessian"), True
    except IdentificationError:
        bhhh = require_symmetric(design.bhhh(params)[block], name="bhhh matrix")
        return solve_positive_definite(bhhh, gradient, name="bhhh matrix"), False


def _start_vector(design, start):
    """A float copy of ``start``, or of the declared start values when it is None."""
    params = design.start_values.copy() if start is None else np.asarray(start, dtype=float).copy()
    if params.shape != (design.k,):
        raise ValueError(f"start vector must have length {design.k}, got shape {params.shape}")
    return params


def estimate_design(design, start=None, estimate_only=False, hold=()):
    """Run the optimiser against an already compiled design.

    Each trial point costs one softmax pass: the line search takes the
    log-likelihood from the point's probabilities, and at the accepted point
    the same array gives the gradient and Hessian for the next step and, at
    the end, the result.

    With ``estimate_only``, for a caller that reads nothing but the estimate,
    a Newton step whose decrement is at most NEWTON_DECREMENT_TOLERANCE is
    taken and ends the fit, converged, without evaluating its end point; the
    fit returns a :class:`PointEstimate`, not an EstimationResult.

    The parameters at the indices in ``hold`` keep their start values; steps
    and the gradient test take the free rest. ``gradient`` and
    ``hessian_at_optimum`` stay full, the LM test's inputs at a restriction.
    A fit that does not converge says so in its status rather than raising.
    """
    params = _start_vector(design, start)
    # A list, not np.delete, and take(), not np.ix_ indexing: at k = 4 these
    # cost a bootstrap replicate's fit about 1.5%, against 2.4% and more.
    free = np.array([i for i in range(design.k) if i not in hold], dtype=np.intp)
    block = free[:, None], free  # np.ix_(free, free), for the BHHH fallback
    direction = np.zeros(design.k)  # stays 0 where held
    p = design.probabilities(params)
    ll, floored = design.chosen_log_likelihood(p)
    if not np.isfinite(ll):
        raise StartPointError("log-likelihood is not finite at the start point")

    status = STATUS_MAX_ITERATIONS
    iterations = 0
    while True:
        gradient, hessian = design.derivatives(p)
        g_free, h_free = gradient[free], hessian.take(free, 0).take(free, 1)
        if np.abs(g_free).max(initial=0.0) <= GRADIENT_TOLERANCE:
            status = STATUS_CONVERGED
            break
        if iterations == MAX_ITERATIONS:
            break
        try:
            step, newton = _ascent_direction(design, params, g_free, h_free, block)
        except IdentificationError:
            status = STATUS_SINGULAR_HESSIAN
            break
        direction[free] = step  # every bit of step, the sign of a zero too
        if estimate_only and newton and g_free @ step <= NEWTON_DECREMENT_TOLERANCE:
            params = params + direction
            iterations += 1
            status = STATUS_CONVERGED
            break
        # Near the optimum the full step's gain falls below the rounding of
        # ll before the gradient test fires. So the first candidate, full
        # step first, that moves the point without losing more than that
        # rounding is accepted; the gradient test, or the decrement test of
        # an estimate-only fit, still decides convergence.
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
        # After a certified step this is the last evaluated point's flag: a
        # step of at most 1e-4 standard errors lifts no probability off the floor.
        warnings.warn(
            "chosen-alternative probability underflowed at the final point",
            ProbabilityUnderflowWarning,
            stacklevel=2,
        )

    names = list(design.free_names)
    if estimate_only:
        result = PointEstimate(params_hat=params, names=names, iterations=iterations, status=status)
    else:
        singular = status == STATUS_SINGULAR_HESSIAN
        result = EstimationResult(
            params_hat=params,
            names=names,
            iterations=iterations,
            status=status,
            ll_hat=ll,
            gradient_norm=float(np.abs(g_free).max(initial=0.0)),
            gradient=gradient,
            hessian_at_optimum=hessian,
            identification=check_identification(hessian, names=names) if singular else None,
        )
    runaway = [name for name, v in zip(names, params) if abs(v) > DIVERGENCE_BOUND]
    if runaway:
        warnings.warn(
            f"coefficients {runaway} exceed |{DIVERGENCE_BOUND:g}|; the model "
            "may be empirically unidentified on this sample",
            DivergenceWarning,
            stacklevel=2,
        )
    return result


def multi_start(design, n_starts=1, seed=0):
    """Fit a compiled design from n_starts starts; return (best, all runs).

    Start 0 is the declared start values; start i > 0 adds normal noise
    seeded from (seed, i) to them, and labels its run ``start_index`` i.
    ``best`` is the converged run with the highest log-likelihood, else the
    run with the highest log-likelihood, whose status says it did not
    converge: nothing here raises for that. Converged runs disagreeing by
    more than 1e-4 in log-likelihood raise EstimationDisagreementWarning.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    runs = []
    for i in range(n_starts):
        start = design.start_values
        if i > 0:
            rng = np.random.default_rng(seed_from(seed, i))
            start = start + START_PERTURBATION_SCALE * rng.standard_normal(design.k)
        run = estimate_design(design, start=start)
        run.start_index = i
        runs.append(run)

    converged = [r for r in runs if r.converged]
    lls = [r.ll_hat for r in converged]
    if lls and max(lls) - min(lls) > DISAGREEMENT_TOLERANCE:
        warnings.warn(
            f"converged starts disagree: log-likelihood spread "
            f"{max(lls) - min(lls):.3e} exceeds {DISAGREEMENT_TOLERANCE:g}",
            EstimationDisagreementWarning,
            stacklevel=2,
        )
    best = max(converged or runs, key=lambda r: r.ll_hat)
    return best, runs


def _require_converged(fit):
    """``fit`` if it converged, else its error: IdentificationError for a
    singular Hessian, ConvergenceError for any other status."""
    if fit.converged:
        return fit
    if fit.status != STATUS_SINGULAR_HESSIAN:
        raise ConvergenceError(f"estimation did not converge (status: {fit.status})")
    report = fit.identification  # always set on a full fit with a singular Hessian
    raise IdentificationError(
        f"the Hessian is singular\n  rank {report.hessian_rank}, condition number "
        f"{report.condition_number:.3e}, suspect parameters: "
        f"{', '.join(report.suspect_parameters) or 'none isolated'}"
    )
