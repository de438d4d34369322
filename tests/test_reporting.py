"""Fit measures, significance stars, precision rules, table rendering."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicestats import (
    Column,
    EmpiricalPValue,
    bic,
    format_estimate,
    format_p_value,
    format_scientific,
    format_significant,
    format_table,
    prediction_gain,
    rho_bar_squared,
    star_code,
)
from choicestats.reporting import APA_FLOOR, P_DIGITS, STAR_THRESHOLDS


class TestFitMeasures:
    def test_rho_bar_squared_hand_example(self):
        # 1 - (-105 - 3) / -200 = 1 - 0.54
        assert rho_bar_squared(-105.0, -200.0, 3) == pytest.approx(0.46, rel=1e-14)

    def test_rho_bar_squared_penalises_parameters(self):
        small = rho_bar_squared(-105.0, -200.0, 3)
        big = rho_bar_squared(-105.0, -200.0, 10)
        assert big < small

    def test_rho_bar_squared_needs_negative_null(self):
        with pytest.raises(ValueError):
            rho_bar_squared(-105.0, 0.0, 3)

    def test_bic_hand_example(self):
        assert bic(-100.0, 3, 500) == pytest.approx(200.0 + 3.0 * math.log(500), rel=1e-15)
        with pytest.raises(ValueError):
            bic(-100.0, 3, 0)

    def test_prediction_gain_reference_points(self):
        # Delta LL of 4 spread over n observations scales the base 0.60.
        value, capped = prediction_gain(4.0, 1000, 0.60)
        assert value == pytest.approx(0.60 * math.exp(4.0 / 1000.0), rel=1e-15)
        assert f"{value:.4f}" == "0.6024"
        assert not capped

        value, capped = prediction_gain(4.0, 5000, 0.60)
        assert f"{value:.4f}" == "0.6005"
        assert not capped

    def test_prediction_gain_caps_at_one(self):
        value, capped = prediction_gain(10.0, 2, 0.9)
        assert value == 1.0
        assert capped

    @pytest.mark.parametrize(
        "args", [(-1.0, 100, 0.5), (4.0, 0, 0.5), (4.0, 100, 0.0), (4.0, 100, 1.0)]
    )
    def test_prediction_gain_input_validation(self, args):
        with pytest.raises(ValueError):
            prediction_gain(*args)


class TestStars:
    def test_thresholds_are_inclusive(self):
        assert star_code(0.0) == "***"
        assert star_code(0.01) == "***"
        assert star_code(0.010000001) == "**"
        assert star_code(0.05) == "**"
        assert star_code(0.0500001) == "*"
        assert star_code(0.10) == "*"
        assert star_code(0.100001) == ""
        assert star_code(1.0) == ""

    def test_thresholds_must_increase(self):
        # Each star level is a strictly smaller p than the one before, and
        # the table footer states the thresholds in that order.
        t1, t2, t3 = STAR_THRESHOLDS
        assert 0.0 < t1 < t2 < t3 < 1.0
        assert [star_code(t) for t in STAR_THRESHOLDS] == ["***", "**", "*"]
        text = format_table(example_columns(), example_rows(), stars=True)
        assert f"***: p <= {t1:g}; **: p <= {t2:g}; *: p <= {t3:g}" in text

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            star_code(-0.1)
        with pytest.raises(ValueError):
            star_code(1.5)


class TestNumberFormats:
    @pytest.mark.parametrize(
        "value,digits,want",
        [
            (0.0, 4, "0.000"),
            (1234.567, 4, "1235"),
            (12345.6, 4, "12350"),
            (0.012341, 4, "0.01234"),
            (-1.946, 4, "-1.946"),
            (0.5, 4, "0.5000"),
            (0.2193, 4, "0.2193"),
            (6.02, 3, "6.02"),
            (float("inf"), 4, "inf"),
        ],
    )
    def test_significant_digits(self, value, digits, want):
        assert format_significant(value, digits) == want

    @pytest.mark.parametrize(
        "value,digits,want",
        [
            (0.004677, 4, "4.677E-03"),
            (-123456.0, 3, "-1.23E+05"),
            (0.0, 4, "0.000E+00"),
        ],
    )
    def test_scientific(self, value, digits, want):
        assert format_scientific(value, digits) == want

    @pytest.mark.parametrize(
        "value,want",
        [
            (0.009, "9.000E-03"),  # below the 0.01 cutover
            (0.01, "0.01000"),
            (0.0, "0.000"),
            (-0.0004388, "-4.388E-04"),
            (3.5, "3.500"),
        ],
    )
    def test_estimate_switches_to_scientific_below_cutover(self, value, want):
        assert format_estimate(value) == want


    @pytest.mark.parametrize(
        "value, want",
        [(9.9996, "10.00"), (0.99996, "1.000"), (999.96, "1000"), (-9.9996, "-10.00"), (9.9994, "9.999")],
    )
    def test_a_carry_into_the_next_power_of_ten_keeps_the_digit_count(self, value, want):
        assert format_significant(value, 4) == want
        assert format_estimate(value) == want

    def test_large_values_print_zeros_beyond_the_significant_digits(self):
        assert format_significant(1e300, 4) == "1" + "0" * 300
        assert format_significant(-1.23456e20, 3) == "-123" + "0" * 18


def significant_digits(text):
    """The digits of a rendered number that count as significant, and the
    value of one unit in the last of them."""
    mantissa, _, exponent = text.lstrip("-").partition("E")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    unit = 10.0 ** (int(exponent or 0) - len(fraction))
    if not fraction:
        # Trailing zeros of a whole number only hold its place.
        stripped = digits.rstrip("0")
        unit *= 10.0 ** (len(digits) - len(stripped))
        digits = stripped
    return digits, unit


#: Finite non-zero values, many of them just below a power of ten.
_VALUES = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.builds(
        lambda e, k: 10.0**e * (1.0 - 0.5 * 10.0**-k), st.integers(-12, 15), st.integers(1, 9)
    ),
).flatmap(lambda v: st.sampled_from((v, -v)))


class TestNumberFormatProperties:
    @settings(max_examples=500, deadline=None)
    @given(value=_VALUES, digits=st.integers(1, 8))
    def test_exactly_the_requested_significant_digits(self, value, digits):
        for render in (format_significant, format_estimate):
            text = render(value, digits)
            shown, unit = significant_digits(text)
            assert len(shown) <= digits
            if "." in text or "E" in text:
                assert len(shown) == digits or set(shown) <= {"0"}, text
            assert abs(float(text) - value) <= 0.5 * unit * (1 + 1e-9), text

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(0.0, 1.0) | st.sampled_from((0.0, 1e-300, 0.0005, 0.000999999, 0.001, 0.0015, 1.0)))
    def test_p_values_are_never_printed_as_zero_or_below_the_floor(self, p):
        text = format_p_value(p)
        if text.startswith("< "):
            assert text == "< .001" and p < 0.001
        else:
            assert float(text) >= 0.001 and float(text) > 0
            assert abs(float(text) - p) <= 0.5 * 10.0**-3 * (1 + 1e-9)


class TestPValueFormat:
    def test_plain_value(self):
        assert format_p_value(0.124) == "0.124"

    def test_apa_floor_strips_leading_zero(self):
        assert format_p_value(0.0005) == "< .001"
        assert format_p_value(0.000999999) == "< .001"
        assert format_p_value(0.001) == "0.001"

    def test_floors_print_every_digit_they_need(self):
        # The printed bound must read back as the floor: the APA floor, and
        # an empirical p's resolution bound 1/S.
        text = format_p_value(0.0)
        assert text == "< .001" and float(text[2:]) == APA_FLOOR
        for s_converged, want in ((40, "< 0.025"), (400, "< 0.0025"), (4000, "< 0.00025")):
            text = format_p_value(EmpiricalPValue(crossings=0, s_converged=s_converged))
            assert text == want and float(text[2:]) == 1.0 / s_converged

    def test_floor_is_on_the_p_grid(self):
        # A floor off the 10**-P_DIGITS grid would let p = 0.0012 print as
        # 0.001, below it; on the grid, no p at or above the floor does.
        assert round(APA_FLOOR * 10**P_DIGITS) == APA_FLOOR * 10**P_DIGITS
        assert format_p_value(APA_FLOOR) == "0.001"
        assert format_p_value(0.0012) == "0.001"
        assert format_p_value(0.0014999) == "0.001"

    def test_sidedness_annotation(self):
        assert format_p_value(0.05, sidedness="one_sided_less") == "0.050 (1-sided, H1 <)"
        assert format_p_value(0.05, sidedness="two_sided") == "0.050 (2-sided)"
        # Unknown tags pass through verbatim rather than being dropped.
        assert format_p_value(0.05, sidedness="posterior") == "0.050 (posterior)"

    def test_empirical_p_passthrough(self):
        p = EmpiricalPValue(crossings=0, s_converged=400)
        assert format_p_value(p, sidedness="empirical") == "< 0.0025 (empirical 1-sided)"
        assert format_p_value(EmpiricalPValue(crossings=2, s_converged=400)) == "0.005"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            format_p_value(1.2)


def example_columns():
    return [
        Column("name", "parameter", "label"),
        Column("estimate", "estimate", "estimate"),
        Column("se", "std err", "se"),
        Column("t", "t-ratio", "t"),
        Column("p", "p-value", "p"),
    ]


def example_rows():
    return [
        {"name": "asc_bus", "estimate": -1.946, "se": 0.1507, "t": -12.91, "p": 0.0001},
        {"name": "b_cost", "estimate": -0.000223, "se": 0.0164, "t": -0.014, "p": 0.989},
    ]


class TestFormatTable:
    def test_text_layout(self):
        text = format_table(example_columns(), example_rows())
        lines = text.splitlines()
        assert lines[0].startswith("parameter")
        assert "p-value (2-sided)" in lines[0]
        assert set(lines[1]) == {"-", " "}
        # Labels left-justified, numbers right-justified.
        assert lines[2].startswith("asc_bus ")
        assert lines[2].rstrip().endswith("< .001")
        assert "-2.230E-04" in lines[3]
        assert any(line.startswith("note: p-value sidedness") for line in lines)
        assert text.endswith("\n")

    def test_uniform_sidedness_moves_to_header(self):
        text = format_table(example_columns(), example_rows())
        assert "(2-sided)" in text.splitlines()[0]
        assert "0.989 (" not in text

    def test_per_cell_sidedness_annotates_cells(self):
        columns = example_columns()
        rows = example_rows()
        rows[0]["p"] = (0.0001, "one_sided_less")
        rows[1]["p"] = (0.989, "two_sided")
        text = format_table(columns, rows)
        assert "< .001 (1-sided, H1 <)" in text
        assert "0.989 (2-sided)" in text
        assert "per cell" in text

    def test_bare_p_in_per_cell_column_defaults_to_two_sided(self):
        # Beside a one-sided cell, the column is per cell and the bare p is labelled two-sided.
        rows = example_rows()
        rows[0]["p"] = (0.0001, "one_sided_less")
        text = format_table(example_columns(), rows)
        assert "0.989 (2-sided)" in text

    def test_stars_appended_inside_p_cells(self):
        text = format_table(example_columns(), example_rows(), stars=True)
        assert "< .001 ***" in text
        assert "0.989 *" not in text
        assert "note: ***: p <= 0.01; **: p <= 0.05; *: p <= 0.1" in text

    def test_stars_without_uncertainty_column_refused(self):
        columns = [
            Column("name", "parameter", "label"),
            Column("estimate", "estimate", "estimate"),
            Column("p", "p-value", "p"),
        ]
        with pytest.raises(ValueError, match="standard-error or t-ratio column"):
            format_table(columns, example_rows(), stars=True)

    def test_empirical_p_star_uses_resolution_bound(self):
        # crossings 0 out of 40: stars from the conservative 1/40 = 0.025.
        columns = example_columns()
        rows = example_rows()
        rows[0]["p"] = (EmpiricalPValue(crossings=0, s_converged=40), "empirical")
        rows[1]["p"] = (0.989, "empirical")
        text = format_table(columns, rows, stars=True)
        assert "< 0.025 **" in text

    def test_missing_cells_render_empty(self):
        rows = [{"name": "asc_bus", "estimate": -1.946}]
        text = format_table(example_columns(), rows)
        cells = text.splitlines()[2]
        assert cells.rstrip().endswith("-1.946")

    def test_ratio_cells(self):
        columns = [
            Column("name", "parameter", "label"),
            Column("ratio", "width ratio", "ratio"),
            Column("se", "std err", "se"),
        ]
        rows = [{"name": "b_ovt_bus", "ratio": 6.018, "se": 0.1}]
        text = format_table(columns, rows)
        assert "6.02" in text

    def test_uniform_tag_of_tagged_cells_moves_to_header(self):
        rows = example_rows()
        rows[0]["p"] = (0.0001, "one_sided_less")
        rows[1]["p"] = (0.989, "one_sided_less")
        text = format_table(example_columns(), rows)
        assert "p-value (1-sided, H1 <)" in text.splitlines()[0]
        assert "(1-sided, H1 <)" not in "".join(text.splitlines()[2:4])
        assert "note: p-value sidedness - p-value: 1-sided, H1 <" in text
        doc = json.loads(format_table(example_columns(), rows, fmt="json"))
        assert [c["sidedness"] for c in doc["columns"]] == [None, None, None, None, "one_sided_less"]

    def test_bare_p_and_two_sided_pair_share_the_header(self):
        rows = example_rows()
        rows[1]["p"] = (0.989, "two_sided")
        text = format_table(example_columns(), rows)
        assert "p-value (2-sided)" in text.splitlines()[0]
        assert "0.989 (" not in text

    def test_missing_cells_do_not_count_towards_sidedness(self):
        rows = example_rows()
        rows[0]["p"] = (0.0001, "empirical")
        del rows[1]["p"]
        text = format_table(example_columns(), rows)
        assert "p-value (empirical 1-sided)" in text.splitlines()[0]
        # A column with no p at all has no shared tag: per cell.
        del rows[0]["p"]
        text = format_table(example_columns(), rows, fmt="json")
        doc = json.loads(text)
        assert doc["columns"][-1]["header"] == "p-value"
        assert doc["columns"][-1]["sidedness"] is None
        assert "p-value sidedness - p-value: per cell" in doc["notes"]

    @pytest.mark.parametrize("kind", ["stars", "text", "int"])
    def test_removed_column_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown column kind"):
            format_table([Column("x", "x", kind)], [{"x": 1}])

    def test_csv_format_with_note_comments(self):
        out = format_table(example_columns(), example_rows(), fmt="csv")
        reader = list(csv.reader(io.StringIO(out)))
        assert reader[0][0] == "parameter"
        assert reader[0][4] == "p-value (2-sided)"
        assert reader[1][0] == "asc_bus"
        assert reader[-1][0].startswith("# p-value sidedness")

    def test_json_format_structure(self):
        out = format_table(example_columns(), example_rows(), fmt="json")
        doc = json.loads(out)
        assert [c["key"] for c in doc["columns"]] == ["name", "estimate", "se", "t", "p"]
        assert doc["rows"][0]["name"] == "asc_bus"
        assert doc["rows"][0]["p"] == "< .001"
        assert any("sidedness" in note for note in doc["notes"])
        assert out.endswith("\n")

    def test_unknown_kind_and_format_rejected(self):
        with pytest.raises(ValueError, match="unknown column kind"):
            format_table([Column("x", "x", "blob")], [{"x": 1}])
        with pytest.raises(ValueError, match="unknown table format"):
            format_table(example_columns(), example_rows(), fmt="tsv")
