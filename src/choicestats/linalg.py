"""Symmetric linear algebra helpers used by estimation and covariance code.

All inversions go through an eigendecomposition so that near-singularity is
surfaced explicitly instead of being absorbed into a generic solver.
"""

from __future__ import annotations

import numpy as np

from .errors import IdentificationError

SYMMETRY_TOLERANCE = 1e-8


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


def invert_symmetric(matrix, rel_threshold=1e-12, name="matrix"):
    """Invert a symmetric matrix through its eigendecomposition.

    Eigenvalues with |value| <= rel_threshold * max|value| mark the matrix as
    numerically singular and raise IdentificationError with the condition
    diagnostics attached to the message.
    """
    m = require_symmetric(matrix, name=name)
    w, v = np.linalg.eigh(m)
    absw = np.abs(w)
    largest = float(absw.max(initial=0.0))
    if largest == 0.0:
        raise IdentificationError(f"{name} is exactly zero and cannot be inverted")
    smallest = float(absw.min())
    if smallest <= rel_threshold * largest:
        raise IdentificationError(
            f"{name} is numerically singular: |eigenvalue| ratio "
            f"{smallest / largest:.3e} at threshold {rel_threshold:.0e} "
            f"(eigenvalue range [{w.min():.6e}, {w.max():.6e}])"
        )
    inv = (v / w) @ v.T
    return (inv + inv.T) / 2.0


def solve_positive_definite(matrix, rhs, rel_threshold=1e-12, name="matrix"):
    """Solve matrix @ x = rhs for a strictly positive definite matrix.

    Used for ascent directions, where an indefinite or singular matrix must
    trigger the caller's fallback rather than produce a garbage direction.
    """
    return solve_symmetric_positive_definite(
        require_symmetric(matrix, name=name), rhs, rel_threshold, name
    )


def solve_symmetric_positive_definite(m, rhs, rel_threshold=1e-12, name="matrix"):
    """:func:`solve_positive_definite` for a finite matrix already known to be
    bitwise symmetric, which the symmetry check would return unchanged."""
    w, v = np.linalg.eigh(m)
    largest = float(w.max(initial=0.0))
    if largest <= 0.0 or float(w.min()) <= rel_threshold * largest:
        raise IdentificationError(
            f"{name} is not positive definite "
            f"(eigenvalue range [{w.min():.6e}, {w.max():.6e}])"
        )
    return v @ ((v.T @ np.asarray(rhs, dtype=float)) / w)
