"""Independent multinomial-logit oracle: numpy likelihood, scipy optimiser.

Nothing here imports ``choicestats``. The oracle refits a data set from the
generator's arrays and gives the estimates, classical standard errors and
person-clustered (robust) standard errors the program's outputs are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

# The program stops at a gradient sup-norm of 1e-6; both answers then sit
# within ~1e-8 of the exact optimum, and a last-bit change in the program's
# kernel moves them by far less. A wrong answer (a misread column, a wrong
# derivative) moves estimates by a sizeable share of a standard error.
ESTIMATE_TOL_SE = 1e-3  # |estimate - oracle| <= this many classical SEs
SE_RTOL = 1e-4  # relative tolerance on classical and robust SEs
LL_RTOL = 1e-9  # relative tolerance on the maximised log-likelihood


@dataclass
class OracleFit:
    params: np.ndarray
    ll: float
    se_classical: np.ndarray
    se_robust: np.ndarray


def _probabilities(X, params):
    v = X @ params
    v -= v.max(axis=1, keepdims=True)
    p = np.exp(v)
    return p / p.sum(axis=1, keepdims=True)


def log_likelihood(X, chosen, params):
    v = X @ params
    vmax = v.max(axis=1)
    log_sum = vmax + np.log(np.exp(v - vmax[:, None]).sum(axis=1))
    return float(np.sum(v[np.arange(len(chosen)), chosen] - log_sum))


def score_rows(X, chosen, params):
    p = _probabilities(X, params)
    return X[np.arange(len(chosen)), chosen] - np.einsum("nj,njk->nk", p, X)


def information(X, params):
    """Negative Hessian: sum_n sum_j p_nj (x_nj - xbar_n)(x_nj - xbar_n)'."""
    p = _probabilities(X, params)
    centered = X - np.einsum("nj,njk->nk", p, X)[:, None, :]
    weighted = centered * np.sqrt(p)[:, :, None]
    flat = weighted.reshape(-1, X.shape[2])
    return flat.T @ flat


def fit(X, chosen, person, start=None):
    """Maximum-likelihood fit by scipy's Newton-CG with the analytic Hessian.

    Trust-region methods stall here: near the optimum the change in a
    log-likelihood of order 1e4 falls below float resolution, so they stop
    with the gradient still near 1e-3.
    """
    k = X.shape[2]
    start = np.zeros(k) if start is None else np.asarray(start, dtype=float)
    result = minimize(
        lambda b: -log_likelihood(X, chosen, b),
        start,
        jac=lambda b: -score_rows(X, chosen, b).sum(axis=0),
        hess=lambda b: information(X, b),
        method="Newton-CG",
        options={"xtol": 1e-12, "maxiter": 500},
    )
    params = result.x
    # Newton-CG stops once its truncated CG steps are small, which can leave
    # the gradient near 1e-6; two exact Newton steps take it to rounding level.
    for _ in range(2):
        params = params + np.linalg.solve(information(X, params), score_rows(X, chosen, params).sum(axis=0))
    gradient = score_rows(X, chosen, params).sum(axis=0)
    if not np.all(np.isfinite(params)) or np.max(np.abs(gradient)) > 1e-6:
        raise RuntimeError(f"oracle did not converge: {result.message}")
    inverse = np.linalg.inv(information(X, params))
    groups = np.zeros((int(person.max()) + 1, k))
    np.add.at(groups, person, score_rows(X, chosen, params))
    robust = inverse @ (groups.T @ groups) @ inverse
    return OracleFit(
        params=params,
        ll=log_likelihood(X, chosen, params),
        se_classical=np.sqrt(np.diag(inverse)),
        se_robust=np.sqrt(np.diag(robust)),
    )


def compare_estimate(results, oracle, names):
    """Problems found comparing an ``estimate`` results.json to the oracle."""
    problems = []
    if results.get("status") != "converged":
        return [f"estimate status is {results.get('status')!r}"]
    se = results["covariance"]["se"]
    for i, name in enumerate(names):
        est = results["estimates"][name]
        gap = abs(est - oracle.params[i]) / oracle.se_classical[i]
        if not gap <= ESTIMATE_TOL_SE:
            problems.append(f"{name}: estimate {est!r} vs oracle {float(oracle.params[i])!r} ({gap:.2e} SE)")
        for kind, ref in (("classical", oracle.se_classical[i]), ("robust", oracle.se_robust[i])):
            rel = abs(se[kind][name] - ref) / ref
            if not rel <= SE_RTOL:
                problems.append(f"{name}: {kind} SE {se[kind][name]!r} vs oracle {float(ref)!r} (rel {rel:.2e})")
    rel_ll = abs(results["ll_hat"] - oracle.ll) / abs(oracle.ll)
    if not rel_ll <= LL_RTOL:
        problems.append(f"ll_hat {results['ll_hat']!r} vs oracle {oracle.ll!r} (rel {rel_ll:.2e})")
    return problems
