"""Symmetric linear algebra helpers used by estimation and covariance code.

This module alone decides when a symmetric matrix is too close to singular
to use. Every solve, inverse and identification verdict goes through an
eigendecomposition here, so near-singularity is surfaced explicitly instead
of being absorbed into a generic solver.
"""

from __future__ import annotations

import numpy as np

from .errors import IdentificationError

SYMMETRY_TOLERANCE = 1e-8

#: A solve or an inverse refuses a matrix whose smallest |eigenvalue| is at
#: most this fraction of its largest.
SINGULAR_RATIO = 1e-12

#: Eigenvalues with |value| at most this fraction of the largest mark the
#: near-null directions of an identification check.
IDENTIFICATION_RATIO = 1e-10


def require_symmetric(matrix, tolerance=SYMMETRY_TOLERANCE, name="matrix"):
    """Return the symmetrised matrix, rejecting asymmetry beyond tolerance."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    gap = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if gap > tolerance:
        raise ValueError(
            f"{name} is not symmetric: max |m - m.T| = {gap:.3e} exceeds {tolerance:.0e}"
        )
    return (m + m.T) / 2.0


def invert_symmetric(matrix, name="matrix"):
    """Invert a symmetric matrix through its eigendecomposition.

    Eigenvalues with |value| <= SINGULAR_RATIO * max|value| mark the matrix
    as numerically singular and raise IdentificationError with the condition
    diagnostics attached to the message.
    """
    m = require_symmetric(matrix, name=name)
    w, v = np.linalg.eigh(m)
    absw = np.abs(w)
    largest = float(absw.max(initial=0.0))
    if largest == 0.0:
        raise IdentificationError(f"{name} is exactly zero and cannot be inverted")
    smallest = float(absw.min())
    if smallest <= SINGULAR_RATIO * largest:
        raise IdentificationError(
            f"{name} is numerically singular: |eigenvalue| ratio "
            f"{smallest / largest:.3e} at threshold {SINGULAR_RATIO:.0e} "
            f"(eigenvalue range [{w.min():.6e}, {w.max():.6e}])"
        )
    inv = (v / w) @ v.T
    return (inv + inv.T) / 2.0


def solve_positive_definite(matrix, rhs, name="matrix"):
    """Solve matrix @ x = rhs for a finite, bitwise-symmetric matrix that is
    strictly positive definite; callers holding outside input pass it
    through :func:`require_symmetric` first.

    Used for ascent directions, where an indefinite or singular matrix must
    trigger the caller's fallback rather than produce a garbage direction.
    """
    # eigh returns the eigenvalues in ascending order.
    w, v = np.linalg.eigh(matrix)
    if w[-1] <= 0.0 or w[0] <= SINGULAR_RATIO * w[-1]:
        raise IdentificationError(
            f"{name} is not positive definite (eigenvalue range [{w[0]:.6e}, {w[-1]:.6e}])"
        )
    return v @ ((v.T @ np.asarray(rhs, dtype=float)) / w)


def near_null_space(matrix, name="matrix"):
    """(|eigenvalues|, eigenvectors, near-null mask) of a symmetric matrix.

    An eigenvalue is near-null when |value| <= IDENTIFICATION_RATIO *
    max|value|, so every eigenvalue of the zero matrix is.
    """
    w, v = np.linalg.eigh(require_symmetric(matrix, name=name))
    magnitude = np.abs(w)
    return magnitude, v, magnitude <= IDENTIFICATION_RATIO * magnitude.max()
