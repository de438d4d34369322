"""Fit metrics and table rendering.

Rendering rules the tables enforce rather than document:
  - estimates and interval bounds to SIGNIFICANT_DIGITS significant digits
    (leading zeros never count), switching to scientific notation below 0.01;
  - standard errors always in scientific notation, which keeps their digits
    visible an order of magnitude below the estimates;
  - p-values to P_DIGITS decimals, floored at the APA notation "< .001",
    never rendered "0";
  - every p column labelled with its sidedness, read from its cells: in the
    header when they share one, on each cell otherwise, plus a footer note;
  - significance stars at STAR_THRESHOLDS, only on request (``stars``),
    refused unless a standard-error or t column is present, and appended to
    the p cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from .bootstrap import EmpiricalPValue

SIGNIFICANT_DIGITS = 4
P_DIGITS = 3
#: On the p grid (a multiple of 10**-P_DIGITS), so no p rounds to below it.
APA_FLOOR = 0.001
STAR_THRESHOLDS = (0.01, 0.05, 0.10)

SIDEDNESS_LABELS = {
    "two_sided": "2-sided",
    "one_sided_less": "1-sided, H1 <",
    "one_sided_greater": "1-sided, H1 >",
    "chi_square": "chi-square",
    "empirical": "empirical 1-sided",
}


def rho_bar_squared(ll_hat, ll_0, k):
    """Adjusted likelihood ratio index 1 - (LL - K) / LL_0."""
    ll_0 = float(ll_0)
    if not ll_0 < 0.0:
        raise ValueError(f"ll_0 must be negative, got {ll_0}")
    return 1.0 - (float(ll_hat) - float(k)) / ll_0


def bic(ll_hat, k, n_obs):
    """-2 LL + K ln(n); pass choice observations as n (persons only for
    sensitivity checks)."""
    n_obs = int(n_obs)
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    return -2.0 * float(ll_hat) + float(k) * math.log(n_obs)


def prediction_gain(delta_ll, n_obs, base_avg_prob):
    """Average correct-prediction probability after a fit improvement.

    Spreads delta_ll evenly over the n observations, scaling the base
    probability by exp(delta_ll / n). Returns (probability capped at 1,
    flag whether the cap bit).
    """
    delta_ll = float(delta_ll)
    base_avg_prob = float(base_avg_prob)
    if delta_ll < 0.0:
        raise ValueError(f"delta_ll must be >= 0, got {delta_ll}")
    if not 0.0 < base_avg_prob < 1.0:
        raise ValueError(f"base probability must be in (0, 1), got {base_avg_prob}")
    n_obs = int(n_obs)
    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    raw = base_avg_prob * math.exp(delta_ll / n_obs)
    return min(raw, 1.0), raw > 1.0


def star_code(p):
    """"***" for p <= .01, "**" to .05, "*" to .10 (STAR_THRESHOLDS), else ""."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    t1, t2, t3 = STAR_THRESHOLDS
    if p <= t1:
        return "***"
    if p <= t2:
        return "**"
    if p <= t3:
        return "*"
    return ""


def format_significant(value, digits=4):
    """Plain decimal with `digits` significant figures, trailing zeros kept."""
    value = float(value)
    if value == 0.0:
        return f"{0.0:.{digits - 1}f}"
    if not math.isfinite(value):
        return str(value)
    # Rounded first: a carry to the next power of ten (9.9996 to 1.000e+01) costs a decimal.
    mantissa, _, exponent = f"{value:.{digits - 1}e}".partition("e")
    decimals = digits - 1 - int(exponent)
    if decimals <= 0:
        return mantissa.replace(".", "") + "0" * -decimals
    return f"{value:.{decimals}f}"


def format_scientific(value, digits=4):
    value = float(value)
    if not math.isfinite(value):
        return str(value)
    return f"{value:.{digits - 1}E}"


def format_estimate(value, digits=4):
    """Plain significant digits, scientific once |value| drops below 0.01."""
    value = float(value)
    if value != 0.0 and abs(value) < 0.01:
        return format_scientific(value, digits)
    return format_significant(value, digits)


def format_p_value(p, sidedness=None):
    """APA-floored p with optional sidedness annotation, never exactly "0"."""
    suffix = f" ({SIDEDNESS_LABELS.get(sidedness, sidedness)})" if sidedness else ""
    if isinstance(p, EmpiricalPValue):
        return p.display(P_DIGITS) + suffix
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p < APA_FLOOR:
        return "< " + f"{APA_FLOOR:.{P_DIGITS}f}".removeprefix("0") + suffix
    return f"{p:.{P_DIGITS}f}" + suffix


def _star_p(p):
    # Stars for an empirical p below resolution use the conservative 1/S.
    if isinstance(p, EmpiricalPValue):
        return 1.0 / p.s_converged if p.below_resolution else p.value
    return float(p)


@dataclass(frozen=True)
class Column:
    key: str
    header: str
    kind: str  # label | estimate | se | t | ratio | p


def _p_and_sidedness(value):
    # A p cell is a (p, sidedness) pair or a bare p, which is two-sided.
    p, sidedness = value if isinstance(value, tuple) else (value, None)
    return p, sidedness or "two_sided"


def _uniform_sidedness(column, rows):
    """The one sidedness shared by every present cell of a p column, else None."""
    if column.kind != "p":
        return None
    tags = {_p_and_sidedness(row[column.key])[1] for row in rows if row.get(column.key) is not None}
    return tags.pop() if len(tags) == 1 else None


def _render_cell(column, row, stars, header_sidedness):
    value = row.get(column.key)
    if value is None:
        return ""
    kind = column.kind
    if kind == "label":
        return str(value)
    if kind == "estimate":
        return format_estimate(value, SIGNIFICANT_DIGITS)
    if kind == "se":
        return format_scientific(value, SIGNIFICANT_DIGITS)
    if kind in ("t", "ratio"):
        return f"{float(value):.2f}"
    if kind == "p":
        p, sidedness = _p_and_sidedness(value)
        # A sidedness shown in the header is not repeated on the cell.
        text = format_p_value(p, None if header_sidedness else sidedness)
        code = star_code(_star_p(p)) if stars else ""
        return f"{text} {code}" if code else text
    raise ValueError(f"unknown column kind '{column.kind}'")


def _footer_notes(columns, sidedness, stars):
    notes = []
    parts = [
        f"{c.header}: {SIDEDNESS_LABELS.get(tag, tag) if tag else 'per cell'}"
        for c, tag in zip(columns, sidedness)
        if c.kind == "p"
    ]
    if parts:
        notes.append("p-value sidedness - " + "; ".join(parts))
    if stars:
        t1, t2, t3 = STAR_THRESHOLDS
        notes.append(f"***: p <= {t1:g}; **: p <= {t2:g}; *: p <= {t3:g}")
    return notes


def format_table(columns, rows, fmt="text", stars=False):
    """Render rows under the reporting conventions; see module docstring.

    A p cell is a bare p (two-sided) or a (p, sidedness) pair. ``stars``
    appends significance stars to the p cells; they are refused unless a
    standard-error or t column is present: bare starred estimates hide the
    uncertainty the stars pretend to summarise.
    """
    columns = list(columns)
    rows = list(rows)
    if stars and not any(c.kind in ("se", "t") for c in columns):
        raise ValueError(
            "significance stars require a standard-error or t-ratio column "
            "alongside; add one or drop the stars"
        )

    sidedness = [_uniform_sidedness(c, rows) for c in columns]
    headers = [
        f"{c.header} ({SIDEDNESS_LABELS.get(tag, tag)})" if tag else c.header
        for c, tag in zip(columns, sidedness)
    ]
    cells = [[_render_cell(c, row, stars, tag) for c, tag in zip(columns, sidedness)] for row in rows]
    notes = _footer_notes(columns, sidedness, stars)

    if fmt == "text":
        widths = [
            max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
            for i in range(len(columns))
        ]
        lines = []
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            padded = [
                cell.ljust(w) if c.kind == "label" else cell.rjust(w)
                for cell, w, c in zip(r, widths, columns)
            ]
            lines.append("  ".join(padded).rstrip())
        for note in notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(headers)
        writer.writerows(cells)
        for note in notes:
            writer.writerow([f"# {note}"])
        return out.getvalue()
    if fmt == "json":
        doc = {
            "columns": [
                {"key": c.key, "header": h, "kind": c.kind, "sidedness": tag}
                for c, h, tag in zip(columns, headers, sidedness)
            ],
            "rows": [dict(zip([c.key for c in columns], r)) for r in cells],
            "notes": notes,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown table format '{fmt}'")
