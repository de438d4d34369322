"""CSV loader with line-precise errors, JSON round trips."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicestats import (
    DataError,
    Dataset,
    ModelSpec,
    load_dataset,
    load_model_spec,
    save_dataset,
    save_model_spec,
)
from choicestats.dataio import encode_matrix, read_json, write_json
from testtools import (
    hand_dataset,
    loop_load_dataset,
    same_data,
    three_mode_data,
    three_mode_spec,
)

GOOD_CSV = """person_id,obs_id,alt_id,avail,chosen,tt,cost
p1,p1.1,car,1,1,20,4
p1,p1.1,bus,1,0,35,2
p1,p1.1,rail,1,0,25,3
p1,p1.2,car,1,0,15,4.5
p1,p1.2,bus,1,1,30,2
p1,p1.2,rail,0,0,,
p2,p2.1,car,1,0,40,6
p2,p2.1,bus,1,0,50,2.5
p2,p2.1,rail,1,1,30,3.5
"""


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_loads_well_formed_file(self, tmp_path):
        data = load_dataset(write(tmp_path, GOOD_CSV))
        assert data.alternatives == ["car", "bus", "rail"]
        assert data.n_obs == 3
        assert data.n_persons == 2
        assert data.chosen[0] == 0
        assert data.attributes["tt"][0, 1] == 35.0
        # Unavailable rail row with empty cells carries no attributes.
        assert data.avail[1].tolist() == [True, True, False]
        assert not any(mask[1, 2] for mask in data.carried.values())

    def test_round_trip_through_save(self, tmp_path):
        original = three_mode_data(n_persons=12, obs_per_person=2, seed=9)
        path = tmp_path / "round.csv"
        save_dataset(original, path)
        loaded = load_dataset(path)
        assert loaded.alternatives == original.alternatives
        assert same_data(loaded, original)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_then_load_returns_the_same_columns(self, data):
        # Absent cells, unavailable alternatives and non-finite values all
        # come back as written; a NaN cell stays carried, an empty one not.
        ids = st.text(alphabet="abcxyz019._-", min_size=1, max_size=4)
        alternatives = data.draw(st.lists(ids, min_size=1, max_size=3, unique=True))
        names = data.draw(st.lists(st.sampled_from(("tt", "cost", "wait")), unique=True))
        value = st.none() | st.floats(allow_nan=True, allow_infinity=True)
        observations = []
        for i in range(data.draw(st.integers(1, 6))):
            avail = data.draw(
                st.lists(st.booleans(), min_size=len(alternatives), max_size=len(alternatives))
                .filter(any)
            )
            chosen = data.draw(st.sampled_from([j for j, ok in enumerate(avail) if ok]))
            attributes = [
                {name: x for name in names if (x := data.draw(value)) is not None}
                for _ in alternatives
            ]
            person = data.draw(st.sampled_from(("p1", "p2", "p3")))
            observations.append((person, f"o{i}", chosen, avail, attributes))
        original = hand_dataset(alternatives, observations)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "data.csv"
            save_dataset(original, path)
            loaded = load_dataset(path)
        assert same_data(loaded, original)

    def test_numpy_scalar_values_are_written_as_numbers(self, tmp_path):
        original = hand_dataset(
            ["car", "bus"],
            [("p1", "o1", 0, (True, True), ({"tt": np.float64(1.5)}, {"tt": np.float64(2.0)}))],
        )
        path = tmp_path / "data.csv"
        save_dataset(original, path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "p1,o1,car,1,1,1.5"
        assert same_data(load_dataset(path), original)

    @pytest.mark.parametrize(
        "mutate, expected_line",
        [
            # Non-numeric attribute cell.
            (lambda t: t.replace("p1,p1.1,bus,1,0,35,2", "p1,p1.1,bus,1,0,fast,2"), 3),
            # Bad availability flag.
            (lambda t: t.replace("p1,p1.2,rail,0,0,,", "p1,p1.2,rail,no,0,,"), 7),
            # Duplicate (observation, alternative) row.
            (lambda t: t.replace(
                "p2,p2.1,car,1,0,40,6", "p2,p2.1,car,1,0,40,6\np2,p2.1,car,1,0,40,6"
            ), 9),
            # Wrong field count.
            (lambda t: t.replace("p2,p2.1,rail,1,1,30,3.5", "p2,p2.1,rail,1,1,30"), 10),
        ],
    )
    def test_errors_carry_file_and_line(self, tmp_path, mutate, expected_line):
        path = write(tmp_path, mutate(GOOD_CSV))
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert excinfo.value.line == expected_line
        assert str(path) in str(excinfo.value)

    def test_two_chosen_rows_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("p1,p1.1,bus,1,0,35,2", "p1,p1.1,bus,1,1,35,2")
        with pytest.raises(DataError, match="chosen"):
            load_dataset(write(tmp_path, bad))

    def test_zero_chosen_rows_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("p2,p2.1,rail,1,1,30,3.5", "p2,p2.1,rail,1,0,30,3.5")
        with pytest.raises(DataError, match="chosen"):
            load_dataset(write(tmp_path, bad))

    def test_chosen_but_unavailable_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("p1,p1.2,bus,1,1,30,2", "p1,p1.2,bus,0,1,30,2")
        with pytest.raises(DataError):
            load_dataset(write(tmp_path, bad))

    def test_observation_split_across_persons_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("p1,p1.2,rail,0,0,,", "p9,p1.2,rail,0,0,,")
        with pytest.raises(DataError, match="person"):
            load_dataset(write(tmp_path, bad))

    def test_missing_alternative_row_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("p1,p1.2,rail,0,0,,\n", "")
        with pytest.raises(DataError):
            load_dataset(write(tmp_path, bad))

    def test_missing_reserved_column_rejected(self, tmp_path):
        bad = GOOD_CSV.replace("person_id,", "person,")
        with pytest.raises(DataError, match="person_id"):
            load_dataset(write(tmp_path, bad))

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "nowhere.csv")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda t: t.replace("p1,p1.2,bus,1,1,30,2", "p1,p1.2,bus,0,1,30,2"),
             "observation 'p1.2' chose unavailable alternative 'bus'"),
            (lambda t: t.replace("p2,p2.1,car,1,", "p2,p2.1,car,0,").replace(
                "p2,p2.1,bus,1,", "p2,p2.1,bus,0,").replace("p2,p2.1,rail,1,", "p2,p2.1,rail,0,"),
             "observation 'p2.1' has no available alternative"),
        ],
    )
    def test_availability_errors_carry_the_observation_line(self, tmp_path, mutate, message):
        path = write(tmp_path, mutate(GOOD_CSV))
        first_line = {"p1.2": 5, "p2.1": 8}[message.split("'")[1]]
        with pytest.raises(DataError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == f"{path}:{first_line}: {message}"

    def test_rows_are_checked_before_observations_are(self, tmp_path):
        # p1.1 chose an unavailable alternative; a later row has a bad flag.
        bad = GOOD_CSV.replace("p1,p1.1,car,1,1,20,4", "p1,p1.1,car,0,1,20,4").replace(
            "p2,p2.1,bus,1,0,50,2.5", "p2,p2.1,bus,1,x,50,2.5"
        )
        with pytest.raises(DataError, match="column 'chosen' must be 0 or 1") as excinfo:
            load_dataset(write(tmp_path, bad))
        assert excinfo.value.line == 9

    @pytest.mark.parametrize(
        "tail, line",
        [
            # A field beyond the csv module's limit of 131,072 characters.
            ("p2,p2.1,rail,1,1,30," + "9" * 200_000 + "\n", 10),
            # An unterminated quote swallows the rest of the file into one
            # field, which passes the limit on the line after it.
            ('p2,p2.1,rail,1,1,30,"3.5\n' + "9" * 200_000 + "\n", 11),
        ],
    )
    def test_csv_syntax_errors_carry_file_and_line(self, tmp_path, tail, line):
        text = GOOD_CSV.replace("p2,p2.1,rail,1,1,30,3.5\n", "") + tail
        path = write(tmp_path, text)
        with pytest.raises(DataError, match="cannot parse CSV: field larger than field limit") as excinfo:
            load_dataset(path)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize("rows_before", [0, 2000])
    def test_bytes_that_are_not_utf8_fail_the_file(self, tmp_path, rows_before):
        # The line is the bad byte's own, wherever the reader's decode block
        # starts. An earlier row's bad flag does not win: the file is not text.
        text = GOOD_CSV.replace("p1,p1.1,bus,1,0,", "p1,p1.1,bus,x,0,")
        text += "".join(f"q{i},q{i}.1,car,1,1,1,1\n" for i in range(rows_before))
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8") + b"p3,p3.1,car,1,1,\xff,1\n")
        with pytest.raises(DataError, match="not UTF-8 text: invalid start byte") as excinfo:
            load_dataset(path)
        bad_line = 11 + rows_before
        assert excinfo.value.line == bad_line
        assert str(excinfo.value).startswith(f"{path}:{excinfo.value.line}: ")


#: A valid cell value for each reserved column, and a few for attributes.
_ATTRIBUTE_CELLS = ("1", "2.5", "-3e2", "nan", "inf", "1e400", "")
_BAD_CELLS = ("x", "1.0", "2", "--1", "1\x00", "\x001", " ", "", "yes", "1 2", "\x1c1")


@st.composite
def faulty_csv_records(draw):
    """The records of a valid choice file, header first, each a list of
    cells, with up to four injected faults."""
    alternatives = draw(st.lists(st.sampled_from(("car", "bus", "rail")), min_size=1, max_size=3, unique=True))
    names = draw(st.lists(st.sampled_from(("tt", "cost")), unique=True))
    header = ["person_id", "obs_id", "alt_id", "avail", "chosen", *names]
    header = draw(st.permutations(header))
    records = []
    for i in range(draw(st.integers(1, 4))):
        person = draw(st.sampled_from(("p1", "p2")))
        picked = draw(st.integers(0, len(alternatives) - 1))
        for j, alt in enumerate(alternatives):
            row = {"person_id": person, "obs_id": f"o{i}", "alt_id": alt, "avail": "1",
                   "chosen": "1" if j == picked else "0"}
            row.update((name, draw(st.sampled_from(_ATTRIBUTE_CELLS))) for name in names)
            records.append([row[c] for c in header])
    records = draw(st.permutations(records))
    width = len(header)
    column = {name: c for c, name in enumerate(header)}
    blank_first = False
    blank = st.sampled_from([[], [""], [" "], [""] * width, [" \t"] * width, [""] * (width + 2)])
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from((
            "blank", "ragged", "pad", "nul", "empty_id", "flag", "number",
            "split", "duplicate", "delete", "chosen", "avail", "blank_first",
        )))
        at = draw(st.integers(0, len(records)))
        if fault == "blank_first":
            # A blank first record is the header: the required columns are
            # reported missing, not the file empty.
            blank_first = True
            continue
        if fault == "blank":
            records.insert(at, draw(blank))
            continue
        rows = [r for r in range(len(records)) if len(records[r]) == width]
        if not rows:
            continue
        r = draw(st.sampled_from(rows))
        cell = draw(st.integers(0, width - 1))
        row = records[r]
        if fault == "ragged":
            records[r] = row[:-1] if draw(st.booleans()) else row + [""]
        elif fault == "pad":
            row[cell] = draw(st.sampled_from((" ", "\t", "  "))) + row[cell] + " "
        elif fault == "nul":
            row[cell] += "\x00"
        elif fault == "empty_id":
            row[column[draw(st.sampled_from(("person_id", "obs_id", "alt_id")))]] = draw(st.sampled_from(("", "  ")))
        elif fault == "flag":
            row[column[draw(st.sampled_from(("avail", "chosen")))]] = draw(st.sampled_from(_BAD_CELLS))
        elif fault == "number" and names:
            row[column[draw(st.sampled_from(names))]] = draw(st.sampled_from(_BAD_CELLS))
        elif fault == "split":
            row[column["person_id"]] = "p9"
        elif fault == "duplicate":
            records.insert(at, list(row))
        elif fault == "delete":
            del records[r]
        elif fault == "chosen":
            row[column["chosen"]] = "1" if row[column["chosen"]].strip() == "0" else "0"
        elif fault == "avail":
            row[column["avail"]] = "0"
    return [[]] * blank_first + [header] + records


class TestLoaderMatchesRowLoop:
    """load_dataset against loop_load_dataset, the record-at-a-time reference."""

    @staticmethod
    def outcome(loader, path):
        try:
            return loader(path)
        except DataError as exc:
            return exc

    @settings(max_examples=400, deadline=None)
    @given(records=faulty_csv_records())
    def test_same_dataset_or_same_error(self, records):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "data.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(records)
            expected = self.outcome(loop_load_dataset, path)
            actual = self.outcome(load_dataset, path)
        if isinstance(expected, Dataset):
            assert isinstance(actual, Dataset), actual
            assert same_data(actual, expected)
        elif expected.line is None:
            # The two availability checks, which now name the observation's first line.
            assert isinstance(actual, DataError) and actual.line is not None
            assert str(actual) == str(expected).replace(f"{path}: ", f"{path}:{actual.line}: ", 1)
        else:
            assert isinstance(actual, DataError), actual
            assert (str(actual), actual.line) == (str(expected), expected.line)

    def test_a_blank_first_record_is_a_header_without_the_required_columns(self, tmp_path):
        path = write(tmp_path, "\n" + GOOD_CSV)
        for loader in (load_dataset, loop_load_dataset):
            with pytest.raises(DataError, match="missing required columns") as excinfo:
                loader(path)
            assert excinfo.value.line == 1

    def test_a_nul_suffixed_flag_is_not_a_flag(self, tmp_path):
        # numpy string arrays drop trailing NULs, which would read '1\x00' as 1.
        path = write(tmp_path, GOOD_CSV.replace("p1,p1.1,bus,1,0,", "p1,p1.1,bus,1\x00,0,"))
        for loader in (load_dataset, loop_load_dataset):
            with pytest.raises(DataError, match="column 'avail' must be 0 or 1") as excinfo:
                loader(path)
            assert excinfo.value.line == 3


class TestModelSpecIO:
    def test_round_trip(self, tmp_path):
        spec = three_mode_spec()
        path = tmp_path / "spec.json"
        save_model_spec(spec, path)
        loaded = load_model_spec(path)
        assert loaded.alternatives == spec.alternatives
        assert loaded.parameters == spec.parameters
        assert loaded.utilities == spec.utilities

    def test_defaults_are_filled_in(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            """
            {
              "alternatives": ["a", "b"],
              "parameters": [{"name": "asc_b"}],
              "utilities": {"a": [], "b": [{"param": "asc_b", "attribute": "_const"}]}
            }
            """,
            encoding="utf-8",
        )
        spec = load_model_spec(path)
        p = spec.parameter("asc_b")
        assert p.start == 0.0 and p.fixed is False and p.fixed_value == 0.0
        assert p.h0_value == 0.0 and p.alternative == "auto"

    def test_invalid_spec_becomes_data_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"alternatives": ["a"], "parameters": [], "utilities": {}}',
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            load_model_spec(path)

    @pytest.mark.parametrize(
        "where, key",
        [
            ("document", "utilites"),
            ("parameter", "fixd"),
            ("parameter", "fixed_vlaue"),
            ("term", "atribute"),
        ],
    )
    def test_misspelt_key_is_a_data_error(self, tmp_path, where, key):
        # A misspelt "fixed" would leave the parameter free without notice.
        doc = {
            "alternatives": ["a", "b"],
            "parameters": [{"name": "asc_b", "fixed": True, "fixed_value": 0.5}],
            "utilities": {"a": [], "b": [{"param": "asc_b", "attribute": "_const"}]},
        }
        target = {
            "document": doc,
            "parameter": doc["parameters"][0],
            "term": doc["utilities"]["b"][0],
        }[where]
        target[key] = True
        path = tmp_path / "spec.json"
        write_json(doc, path)
        with pytest.raises(DataError, match=f"unknown key '{key}'"):
            load_model_spec(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("utilities", [], "utilities must be an object, got a list"),
            ("parameters", {"asc_b": 1}, "parameters must be a list, got an object"),
            ("parameters", ["asc_b"], r'parameters\[0\] must be an object, got "asc_b"'),
            ("utilities", {"b": {"param": "asc_b", "attribute": "_const"}}, "utilities.b must be a list, got an object"),
            ("utilities", {"b": ["asc_b"]}, r'utilities.b\[0\] must be an object, got "asc_b"'),
        ],
        ids=["utilities-array", "parameters-object", "parameters-strings", "terms-object", "terms-strings"],
    )
    def test_malformed_shape_is_a_data_error_naming_the_file(self, tmp_path, field, value, message):
        doc = {
            "alternatives": ["a", "b"],
            "parameters": [{"name": "asc_b"}],
            "utilities": {"a": [], "b": [{"param": "asc_b", "attribute": "_const"}]},
        }
        doc[field] = value
        path = tmp_path / "spec.json"
        write_json(doc, path)
        with pytest.raises(DataError, match=message) as excinfo:
            load_model_spec(path)
        assert str(excinfo.value).startswith(f"{path}: malformed model file")

    @pytest.mark.parametrize("value", ["abc", 3], ids=["string", "number"])
    def test_alternatives_that_are_not_a_list_are_refused_by_key(self, tmp_path, value):
        # A string would be read as one alternative per character.
        doc = {
            "alternatives": value,
            "parameters": [{"name": "asc_b"}],
            "utilities": {"a": [], "b": [{"param": "asc_b", "attribute": "_const"}]},
        }
        path = tmp_path / "spec.json"
        write_json(doc, path)
        with pytest.raises(DataError, match="alternatives must be a list, got") as excinfo:
            load_model_spec(path)
        assert str(excinfo.value).startswith(f"{path}: malformed model file")

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc["parameters"][0].update(fixed="false"), 'parameters[0].fixed must be true or false, got "false"'),
            (lambda doc: doc["parameters"][0].update(start="0"), 'parameters[0].start must be a number, got "0"'),
            (lambda doc: doc["alternatives"].__setitem__(0, 1), "alternatives[0] must be a string, got 1"),
            (lambda doc: doc["utilities"]["b"][0].update(param=2), "utilities.b[0].param must be a string, got 2"),
        ],
        ids=["fixed-text", "start-text", "alternative-number", "term-number"],
    )
    def test_a_value_of_the_wrong_type_is_refused_at_its_key_path(self, tmp_path, change, message):
        # "fixed": "false" once fixed the parameter, as bool("false") is True.
        doc = {
            "alternatives": ["a", "b"],
            "parameters": [{"name": "asc_b"}],
            "utilities": {"a": [], "b": [{"param": "asc_b", "attribute": "_const"}]},
        }
        change(doc)
        path = tmp_path / "spec.json"
        write_json(doc, path)
        with pytest.raises(DataError) as excinfo:
            load_model_spec(path)
        assert str(excinfo.value) == f"{path}: malformed model file: {message}"

    def test_a_program_error_in_validation_is_not_an_input_error(self, tmp_path, monkeypatch):
        def broken(self):
            raise ZeroDivisionError("bug inside validate")

        path = tmp_path / "spec.json"
        save_model_spec(three_mode_spec(), path)
        monkeypatch.setattr(ModelSpec, "validate", broken)
        with pytest.raises(ZeroDivisionError):
            load_model_spec(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"alternatives": [,]}', encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_model_spec(path)
        assert excinfo.value.line is not None


class TestJsonHelpers:
    def test_write_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json({"b": 1, "a": 2}, path)
        text = path.read_text(encoding="utf-8")
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert read_json(path) == {"a": 2, "b": 1}

    def test_matrix_round_trip(self):
        m = np.array([[1.5, -2.0], [-2.0, 4.25]])
        doc = encode_matrix(m, ["x", "y"], ["x", "y"])
        assert doc["rows"] == ["x", "y"] and doc["cols"] == ["x", "y"]
        np.testing.assert_array_equal(np.asarray(doc["data"], dtype=float), m)
