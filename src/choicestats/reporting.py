"""Fit metrics and table rendering.

Rendering rules the tables enforce rather than document:
  - estimates and interval bounds to a significant-digit budget (leading
    zeros never count), switching to scientific notation below 0.01;
  - standard errors always in scientific notation, which keeps their digits
    visible an order of magnitude below the estimates;
  - p-values floored at the APA notation "< .001", never rendered "0";
  - every p column labelled with its sidedness, in the header when uniform
    across rows, on each cell otherwise, plus a footer note;
  - significance stars refused unless a standard-error or t column is
    present, and appended to the p cells they qualify.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import EmpiricalPValue

DEFAULT_STAR_THRESHOLDS = (0.01, 0.05, 0.10)

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


def star_code(p, thresholds=DEFAULT_STAR_THRESHOLDS):
    """"***" for p <= t1, "**" to t2, "*" to t3, else ""."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    t1, t2, t3 = thresholds
    if not t1 < t2 < t3:
        raise ValueError(f"star thresholds must increase strictly, got {thresholds}")
    if p <= t1:
        return "***"
    if p <= t2:
        return "**"
    if p <= t3:
        return "*"
    return ""


@dataclass(frozen=True)
class ReportOptions:
    significant_digits: int = 4
    p_digits: int = 3
    apa_floor: float = 0.001
    star_thresholds: tuple = DEFAULT_STAR_THRESHOLDS
    include_stars: bool = False

    def __post_init__(self):
        t1, t2, t3 = self.star_thresholds
        if not t1 < t2 < t3:
            raise ValueError(
                f"star thresholds must increase strictly, got {self.star_thresholds}"
            )
        # Above the p grid's step, a floor off the grid lets rounding print a p below it.
        on_grid = float(f"{self.apa_floor:.{self.p_digits}f}") == self.apa_floor
        if self.apa_floor > 10.0**-self.p_digits and not on_grid:
            raise ValueError(f"apa_floor {self.apa_floor} is not a multiple of 10**-{self.p_digits}")


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


def format_p_value(p, options=None, sidedness=None):
    """APA-floored p with optional sidedness annotation, never exactly "0"."""
    options = options or ReportOptions()
    suffix = f" ({SIDEDNESS_LABELS.get(sidedness, sidedness)})" if sidedness else ""
    if isinstance(p, EmpiricalPValue):
        return p.display(options.p_digits) + suffix
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p < options.apa_floor:
        return f"< {_strip_leading_zero(options.apa_floor)}" + suffix
    rendered = f"{p:.{options.p_digits}f}"
    if float(rendered) == 0.0:
        return f"< {_strip_leading_zero(10.0 ** -options.p_digits)}" + suffix
    return rendered + suffix


def _strip_leading_zero(x):
    # Every digit of the shortest repr, so the text reads back as x itself.
    text = np.format_float_positional(x, trim="-")
    return text[1:] if text.startswith("0.") else text


def _star_p(p):
    # Stars for an empirical p below resolution use the conservative 1/S.
    if isinstance(p, EmpiricalPValue):
        return 1.0 / p.s_converged if p.below_resolution else p.value
    return float(p)


@dataclass(frozen=True)
class Column:
    key: str
    header: str
    kind: str  # label | text | int | estimate | se | t | p | ratio | stars
    sidedness: str | None = None  # p columns: uniform tag, None = per-cell


def _render_cell(column, row, options):
    value = row.get(column.key)
    if value is None:
        return ""
    kind = column.kind
    if kind in ("label", "text"):
        return str(value)
    if kind == "int":
        return str(int(value))
    if kind == "estimate":
        return format_estimate(value, options.significant_digits)
    if kind == "se":
        return format_scientific(value, options.significant_digits)
    if kind == "t":
        return f"{float(value):.2f}"
    if kind == "ratio":
        return f"{float(value):.2f}"
    if kind == "stars":
        return star_code(_star_p(value), options.star_thresholds)
    if kind == "p":
        if isinstance(value, tuple):
            p, sidedness = value
        else:
            p, sidedness = value, None
        cell_tag = None if column.sidedness else (sidedness or "two_sided")
        text = format_p_value(p, options, cell_tag)
        if options.include_stars:
            stars = star_code(_star_p(p), options.star_thresholds)
            if stars:
                text += f" {stars}"
        return text
    raise ValueError(f"unknown column kind '{column.kind}'")


def _footer_notes(columns, options):
    notes = []
    p_columns = [c for c in columns if c.kind == "p"]
    if p_columns:
        parts = []
        for c in p_columns:
            tag = SIDEDNESS_LABELS.get(c.sidedness, c.sidedness) if c.sidedness else "per cell"
            parts.append(f"{c.header}: {tag}")
        notes.append("p-value sidedness - " + "; ".join(parts))
    if options.include_stars:
        t1, t2, t3 = options.star_thresholds
        notes.append(f"***: p <= {t1:g}; **: p <= {t2:g}; *: p <= {t3:g}")
    return notes


def format_table(columns, rows, options=None, fmt="text"):
    """Render rows under the reporting conventions; see module docstring.

    Stars (via options.include_stars or a "stars" column) are refused unless
    a standard-error or t column is present: bare starred estimates hide the
    uncertainty the stars pretend to summarise.
    """
    options = options or ReportOptions()
    columns = list(columns)
    wants_stars = options.include_stars or any(c.kind == "stars" for c in columns)
    if wants_stars and not any(c.kind in ("se", "t") for c in columns):
        raise ValueError(
            "significance stars require a standard-error or t-ratio column "
            "alongside; add one or drop the stars"
        )

    headers = []
    for c in columns:
        header = c.header
        if c.kind == "p" and c.sidedness:
            header = f"{header} ({SIDEDNESS_LABELS.get(c.sidedness, c.sidedness)})"
        headers.append(header)
    cells = [[_render_cell(c, row, options) for c in columns] for row in rows]
    notes = _footer_notes(columns, options)

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
                cell.ljust(w) if c.kind in ("label", "text") else cell.rjust(w)
                for cell, w, c in zip(r, widths, columns)
            ]
            lines.append("  ".join(padded).rstrip())
        for note in notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        import csv as _csv

        writer = _csv.writer(out)
        writer.writerow(headers)
        writer.writerows(cells)
        for note in notes:
            writer.writerow([f"# {note}"])
        return out.getvalue()
    if fmt == "json":
        doc = {
            "columns": [
                {"key": c.key, "header": h, "kind": c.kind, "sidedness": c.sidedness}
                for c, h in zip(columns, headers)
            ],
            "rows": [dict(zip([c.key for c in columns], r)) for r in cells],
            "notes": notes,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown table format '{fmt}'")
