"""Covariance estimators for the MLE.

Three estimators of the same asymptotic covariance: classical (inverse
negative Hessian), BHHH (inverse score outer product), and the robust
sandwich. Under correct specification they agree asymptotically; their
divergence in finite samples is diagnostic, so all three are always
computed together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovarianceError
from .linalg import invert_symmetric, require_symmetric

@dataclass(frozen=True)
class CovarianceSet:
    classical: np.ndarray
    bhhh: np.ndarray
    robust: np.ndarray
    se_classical: np.ndarray
    se_bhhh: np.ndarray
    se_robust: np.ndarray


def standard_errors(cov, names=None):
    """Square roots of the diagonal. Negative entries are a hard error."""
    cov = np.asarray(cov, dtype=float)
    diagonal = np.diag(cov)
    bad = np.flatnonzero(diagonal < 0)
    if bad.size:
        label = names[bad[0]] if names is not None else f"index {bad[0]}"
        raise CovarianceError(
            f"negative variance for {label}: {diagonal[bad[0]]:.3e}; "
            "covariance matrix is not positive on its diagonal"
        )
    return np.sqrt(diagonal)


def covariance_set(hessian, scores, names=None):
    """The three standard covariance estimators from H and grouped scores.

    classical = (-H)^-1, bhhh = (S'S)^-1, robust = classical (S'S) classical.
    The caller groups ``scores``, one row per cluster (:func:`fit_covariance`
    groups them by person); no degrees-of-freedom correction.
    """
    hessian = require_symmetric(np.asarray(hessian, dtype=float), tolerance=1e-10, name="hessian")
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != hessian.shape[0]:
        raise ValueError(
            f"scores must be (groups, {hessian.shape[0]}), got shape {scores.shape}"
        )
    outer = scores.T @ scores
    classical = invert_symmetric(-hessian, name="negative hessian")
    bhhh = invert_symmetric(outer, name="score outer product")
    robust = classical @ outer @ classical
    robust = (robust + robust.T) / 2.0
    return CovarianceSet(
        classical=classical,
        bhhh=bhhh,
        robust=robust,
        se_classical=standard_errors(classical, names),
        se_bhhh=standard_errors(bhhh, names),
        se_robust=standard_errors(robust, names),
    )


def fit_covariance(design, fit):
    """The covariance set of a converged ``fit`` of ``design``, scores grouped by person."""
    scores = design.score(fit.params_hat)
    return covariance_set(fit.hessian_at_optimum, scores, names=fit.names)
