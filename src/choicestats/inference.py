"""Distribution kernels, hypothesis tests, and asymptotic intervals.

The normal CDF is evaluated through the complementary error function, always
at |x|, so the two tails come from the same computation and Φ(x) + Φ(-x)
sums to 1.0 exactly in floating point. Every chi-square statistic here has
one degree of freedom, and chi2(1) is the square of a standard normal, so its
upper tail at x is the two-sided normal tail at √x, erfc(√(x/2)), computed
directly so small p-values keep relative precision. The Wald p-value is the
two-sided t p-value itself.

Tests: t-ratio (with explicit one/two-sided handling), scalar Wald,
likelihood ratio and Lagrange multiplier; one rule for a parameter's t-test
sidedness, and one record of its asymptotic tests and intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NestingError
from .estimation import _ascent_direction
from .model import SIDEDNESS_CHOICES

_SQRT2 = math.sqrt(2.0)

#: Log-likelihood slack allowed before a "restricted" model beating the
#: general one is treated as a nesting violation.
NESTING_TOLERANCE = 1e-8


def normal_cdf(x):
    """Standard normal CDF Φ(x).

    The tail is computed once at |x| via erfc and reflected, so the pair
    (Φ(x), Φ(-x)) always sums to exactly 1.0.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("normal_cdf requires a finite argument")
    tail = 0.5 * math.erfc(abs(x) / _SQRT2)
    return tail if x < 0 else 1.0 - tail


def normal_quantile(p):
    """Inverse of normal_cdf, from the standard library's NormalDist."""
    # Imported here: importing the package never loads the statistics module.
    from statistics import NormalDist

    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def z_for_level(level):
    """Two-sided critical value z with Φ(z) = 1 - (1-level)/2."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    return normal_quantile(1.0 - (1.0 - level) / 2.0)


def _chisq1_root(x, df):
    """√(x/2) for a chi2(1) statistic ``x``: erf and erfc there are the normal
    mass inside and outside ±√x. Only ``df`` 1 is supported."""
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if df != 1:
        raise ValueError(f"only 1 degree of freedom is supported, got {df}")
    return math.sqrt(x / 2.0)


def chisq_cdf(x, df):
    """Chi-square(1) CDF: erf(√(x/2)), the normal mass within √x of 0."""
    return math.erf(_chisq1_root(x, df))


def chisq_sf(x, df):
    """Chi-square(1) upper tail erfc(√(x/2)), computed directly for far-tail precision."""
    return math.erfc(_chisq1_root(x, df))


@dataclass(frozen=True)
class TestResult:
    method: str
    statistic: float
    df: int | None
    sidedness: str
    p_value: float
    h0_description: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str
    asymmetry_index: float
    notes: tuple[str, ...] = ()

    @property
    def width(self):
        return self.upper - self.lower


def t_test(estimate, se, h0_value=0.0, sidedness="auto"):
    """t-ratio test of H0: value = h0_value.

    "auto" resolves to the one-sided alternative matching the sign of
    (estimate - h0_value); a declared direction is honoured even when the
    estimate falls on the null side, with a note flagging the sign conflict.
    The resolved direction is always recorded.
    """
    se = float(se)
    if not se > 0.0:
        raise ValueError(f"standard error must be positive, got {se}")
    if sidedness not in SIDEDNESS_CHOICES:
        raise ValueError(f"sidedness must be one of {SIDEDNESS_CHOICES}, got '{sidedness}'")
    estimate = float(estimate)
    h0_value = float(h0_value)
    t = (estimate - h0_value) / se
    notes = ()

    resolved = sidedness
    if sidedness == "auto":
        resolved = "less" if t < 0.0 else "greater"
    elif (sidedness == "less" and t > 0.0) or (sidedness == "greater" and t < 0.0):
        notes = ("estimate lies on the null side of the declared one-sided alternative",)

    if resolved == "less":
        p = normal_cdf(t)
        tag = "one_sided_less"
        h1 = f"value < {h0_value:g}"
    elif resolved == "greater":
        p = normal_cdf(-t)
        tag = "one_sided_greater"
        h1 = f"value > {h0_value:g}"
    else:
        p = 2.0 * normal_cdf(-abs(t))
        tag = "two_sided"
        h1 = f"value != {h0_value:g}"

    return TestResult(
        method="t_ratio",
        statistic=t,
        df=None,
        sidedness=tag,
        p_value=p,
        h0_description=f"H0: value = {h0_value:g} vs H1: {h1}",
        notes=notes,
    )


def wald_test(estimate, se, h0_value=0.0):
    """Scalar Wald test: W = t^2 against chi-square with 1 df.

    The square of a standard normal is chi-square(1), so the p-value is the
    two-sided t-ratio p-value of the same t.
    """
    t = t_test(estimate, se, h0_value, sidedness="two_sided")
    return TestResult(
        method="wald",
        statistic=t.statistic * t.statistic,
        df=1,
        sidedness="chi_square",
        p_value=t.p_value,
        h0_description=t.h0_description,
    )


def _chi_square_test(method, statistic):
    """TestResult of ``method`` against chi2(1); a negative statistic is
    rounding and counts as 0."""
    statistic = float(statistic)
    if not math.isfinite(statistic):
        raise ValueError(f"{method} statistic must be finite, got {statistic}")
    value = max(0.0, statistic)
    return TestResult(
        method=method,
        statistic=value,
        df=1,
        sidedness="chi_square",
        p_value=chisq_sf(value, 1),
        h0_description="H0: 1 restriction(s) hold",
    )


def lr_test(ll_general, ll_restricted):
    """Likelihood ratio test of one restriction: LR = 2(LL_general - LL_restricted) ~ chi2(1).

    The general model must nest the restricted one, so its log-likelihood can
    fall below the restricted one only by optimizer noise; beyond 1e-8 that
    is treated as a nesting violation.
    """
    ll_general = float(ll_general)
    ll_restricted = float(ll_restricted)
    if ll_general < ll_restricted - NESTING_TOLERANCE:
        raise NestingError(
            f"general log-likelihood {ll_general:.6f} is below the restricted "
            f"one {ll_restricted:.6f}; the models are not nested or an "
            "optimisation failed"
        )
    return _chi_square_test("lr", 2.0 * (ll_general - ll_restricted))


def lm_test_at(design, fit):
    """LM test of one restriction from a fit of the general-model ``design``
    holding it (``estimate_design``'s ``hold``): g'(-H)^-1 g ~ chi2(1) from the
    fit's own gradient and Hessian at its estimate, Newton on the negative
    analytic Hessian, else the BHHH step of ``design.bhhh``, as the optimiser steps."""
    g, h = fit.gradient, fit.hessian_at_optimum
    return _chi_square_test("lm", g @ _ascent_direction(design, fit.params_hat, g, h)[0])


def asymptotic_ci(estimate, se, level=0.95, method="asymptotic_classical"):
    """Normal-theory interval estimate +- z * se at the given level."""
    estimate = float(estimate)
    se = float(se)
    if se < 0.0:
        raise ValueError(f"standard error must be >= 0, got {se}")
    z = z_for_level(level)
    return ConfidenceInterval(
        lower=estimate - z * se,
        upper=estimate + z * se,
        level=float(level),
        method=method,
        asymmetry_index=0.0,
    )


def resolve_sidedness(alternative, sided, undeclared="auto"):
    """The t-test sidedness of a parameter declaring ``alternative`` under ``--sided``:
    ``two`` is two-sided, ``one`` keeps a declared ``less`` or ``greater`` and else
    gives ``undeclared`` (auto, the estimate's sign), ``auto`` keeps the declaration."""
    if sided == "two":
        return "two_sided"
    if sided == "one" and alternative not in ("less", "greater"):
        return undeclared
    return alternative


def asymptotic_record(estimate, se_classical, se_robust, h0_value, sidedness, level):
    """(tests, intervals) of a parameter as results.json holds them: the classical
    and robust t tests of H0: value = h0_value at ``sidedness``, the Wald test on
    the classical error, and the classical and robust intervals at ``level``."""
    tests = {
        "t_classical": t_test(estimate, se_classical, h0_value, sidedness),
        "t_robust": t_test(estimate, se_robust, h0_value, sidedness),
        "wald": wald_test(estimate, se_classical, h0_value),
    }
    intervals = {
        "classical": asymptotic_ci(estimate, se_classical, level),
        "robust": asymptotic_ci(estimate, se_robust, level, method="asymptotic_robust"),
    }
    return tests, intervals
