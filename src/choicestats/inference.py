"""Distribution kernels, hypothesis tests, and asymptotic intervals.

The normal CDF is evaluated through the complementary error function, always
at |x|, so the two tails come from the same computation and Φ(x) + Φ(-x)
sums to 1.0 exactly in floating point. The chi-square CDF is a regularized
incomplete gamma evaluated by series or continued fraction, with the upper
tail computed directly so small p-values keep relative precision.

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

# Incomplete-gamma evaluation: relative convergence target and iteration cap.
_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 600
_FPMIN = 1e-300

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


def _gamma_p_series(a, x):
    # Lower regularized gamma by power series; valid fastest for x < a + 1.
    if x == 0.0:
        return 0.0
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_GAMMA_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * math.exp(log_prefactor)
    raise ArithmeticError(f"incomplete gamma series did not converge for a={a}, x={x}")


def _gamma_q_continued_fraction(a, x):
    # Upper regularized gamma by Lentz's continued fraction; for x >= a + 1.
    log_prefactor = a * math.log(x) - x - math.lgamma(a)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return math.exp(log_prefactor) * h
    raise ArithmeticError(f"incomplete gamma fraction did not converge for a={a}, x={x}")


def _chisq_tail(x, df):
    """(tail, lower): the tail of chi2(df) at x that converges fast, the lower
    one when ``lower`` is true, so that the other is 1 - tail."""
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    df_value = float(df)
    if not df_value.is_integer() or df_value < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    a, half = df_value / 2.0, x / 2.0
    if half < a + 1.0:
        return _gamma_p_series(a, half), True
    return _gamma_q_continued_fraction(a, half), False


def chisq_cdf(x, df):
    """Chi-square CDF: regularized lower incomplete gamma P(df/2, x/2)."""
    tail, lower = _chisq_tail(x, df)
    return tail if lower else 1.0 - tail


def chisq_sf(x, df):
    """Upper tail 1 - chisq_cdf, computed directly for far-tail precision."""
    tail, lower = _chisq_tail(x, df)
    return 1.0 - tail if lower else tail


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

    Equals the two-sided t-ratio p-value, since the square of a standard
    normal is chi-square(1).
    """
    se = float(se)
    if not se > 0.0:
        raise ValueError(f"standard error must be positive, got {se}")
    t = (float(estimate) - float(h0_value)) / se
    w = t * t
    return TestResult(
        method="wald",
        statistic=w,
        df=1,
        sidedness="chi_square",
        p_value=chisq_sf(w, 1),
        h0_description=f"H0: value = {float(h0_value):g} vs H1: value != {float(h0_value):g}",
    )


def _chi_square_test(method, d, statistic):
    """TestResult of ``method`` against chi2(d). ``d`` is checked before
    ``statistic()``, which runs the test's own checks and returns its
    statistic; a negative statistic is rounding and counts as 0."""
    d_value = float(d)
    if not d_value.is_integer() or d_value < 1:
        raise ValueError(f"number of restrictions must be a positive integer, got {d}")
    df = int(d_value)
    value = max(0.0, float(statistic()))
    return TestResult(
        method=method,
        statistic=value,
        df=df,
        sidedness="chi_square",
        p_value=chisq_sf(value, df),
        h0_description=f"H0: {df} restriction(s) hold",
    )


def lr_test(ll_general, ll_restricted, d):
    """Likelihood ratio test: LR = 2(LL_general - LL_restricted) ~ chi2(d).

    The general model must nest the restricted one, so its log-likelihood can
    fall below the restricted one only by optimizer noise; beyond 1e-8 that
    is treated as a nesting violation.
    """
    ll_general = float(ll_general)
    ll_restricted = float(ll_restricted)

    def statistic():
        if ll_general < ll_restricted - NESTING_TOLERANCE:
            raise NestingError(
                f"general log-likelihood {ll_general:.6f} is below the restricted "
                f"one {ll_restricted:.6f}; the models are not nested or an "
                "optimisation failed"
            )
        return 2.0 * (ll_general - ll_restricted)

    return _chi_square_test("lr", d, statistic)


def lm_test_at(design, fit, d):
    """LM test from a fit of the general-model ``design`` holding the
    restrictions (``estimate_design``'s ``hold``): g'(-H)^-1 g from the fit's
    own gradient and Hessian at its estimate, Newton on the negative analytic
    Hessian, else the BHHH step of ``design.bhhh``, as the optimiser steps."""
    g, h = fit.gradient, fit.hessian_at_optimum
    return _chi_square_test("lm", d, lambda: g @ _ascent_direction(design, fit.params_hat, g, h)[0])


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
