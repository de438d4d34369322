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
#: most this fraction of its largest, or has a reciprocal that is not a finite float.
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


def _refused_or_eigh(matrix, name, solve=False):
    """(eigenvalues, eigenvectors) of a finite, bitwise-symmetric matrix,
    refused with IdentificationError by the one rule of every solve and
    inverse (see SINGULAR_RATIO); a matrix to ``solve`` with must also be
    positive definite. Non-finite entries raise ValueError."""
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} contains non-finite entries")
    w, v = np.linalg.eigh(matrix)
    # eigh sorts w ascending, so a solve, whose w must be positive, reads the ends.
    ends = w if solve else np.sort(np.abs(w))
    smallest, largest = float(ends[0]), float(ends[-1])
    if smallest > SINGULAR_RATIO * largest:
        if 1.0 / smallest < np.inf:
            return w, v
        problem = f"is numerically singular: its smallest |eigenvalue| {smallest:.3e} has no finite reciprocal"
    elif solve:
        problem = "is not positive definite"
    elif largest == 0.0:
        raise IdentificationError(f"{name} is exactly zero and cannot be inverted")
    else:
        problem = (
            f"is numerically singular: |eigenvalue| ratio {smallest / largest:.3e} "
            f"at threshold {SINGULAR_RATIO:.0e}"
        )
    raise IdentificationError(f"{name} {problem} (eigenvalue range [{w[0]:.6e}, {w[-1]:.6e}])")


def invert_symmetric(matrix, name="matrix"):
    """Inverse of a symmetric matrix from its eigendecomposition; a numerically
    singular one raises IdentificationError with its condition diagnostics."""
    w, v = _refused_or_eigh(require_symmetric(matrix, name=name), name)
    inv = (v / w) @ v.T
    return (inv + inv.T) / 2.0


def solve_positive_definite(matrix, rhs, name="matrix"):
    """Solve matrix @ x = rhs for a finite, bitwise-symmetric matrix that is
    strictly positive definite; callers holding outside input pass it
    through :func:`require_symmetric` first. Any other matrix raises
    IdentificationError, on which an ascent direction falls back rather
    than take a garbage step."""
    w, v = _refused_or_eigh(matrix, name, solve=True)
    return v @ ((v.T @ np.asarray(rhs, dtype=float)) / w)


def near_null_space(matrix, name="matrix"):
    """(|eigenvalues|, eigenvectors, near-null mask) of a symmetric matrix.

    An eigenvalue is near-null when |value| <= IDENTIFICATION_RATIO *
    max|value|, so every eigenvalue of the zero matrix is.
    """
    w, v = np.linalg.eigh(require_symmetric(matrix, name=name))
    magnitude = np.abs(w)
    return magnitude, v, magnitude <= IDENTIFICATION_RATIO * magnitude.max()
