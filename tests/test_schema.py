"""The JSON document checker: each input dataclass is its own schema."""

import copy
import json
import re
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import reduce
from operator import getitem
from pathlib import Path
from typing import TypedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from choicestats import (
    AttributeRule,
    ChoiceStatsError,
    DataError,
    ExperimentConfig,
    GeneratorSpec,
    ModelSpec,
    ParameterDef,
    UtilityTerm,
)
from choicestats.util import from_json

from testtools import THREE_MODE_TRUE, three_mode_generator, three_mode_spec

README = Path(__file__).resolve().parents[1] / "README.md"


@dataclass
class _Record:
    count: int
    share: float = 0.5
    label: str | None = None


class _Open(TypedDict):
    count: int


class TestScalars:
    @pytest.mark.parametrize(
        "tp, value, expected",
        [(str, "x", "x"), (bool, False, False), (float, 0, 0.0), (float, 2.5, 2.5), (int, 100, 100), (int, 100.0, 100)],
    )
    def test_accepted(self, tp, value, expected):
        built = from_json(tp, value, "doc")
        assert built == expected and type(built) is tp

    @pytest.mark.parametrize(
        "tp, value, message",
        [
            (str, 1, "must be a string, got 1"),
            (bool, "false", 'must be true or false, got "false"'),
            (bool, 0, "must be true or false, got 0"),
            (float, True, "must be a number, got true"),
            (float, "0.05", 'must be a number, got "0.05"'),
            (int, 100.7, "must be a whole number, got 100.7"),
            (int, True, "must be a whole number, got true"),
            (int, float("inf"), "must be a whole number, got Infinity"),
            (int, None, "must be a whole number, got null"),
            (float, [], "must be a number, got a list"),
        ],
    )
    def test_refused_naming_the_value(self, tp, value, message):
        with pytest.raises(DataError) as excinfo:
            from_json(tp, value, "doc")
        assert str(excinfo.value) == f"doc {message}"

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_a_whole_number_beyond_the_float_range_is_refused_at_its_key_path(self, value):
        with pytest.raises(DataError) as excinfo:
            from_json(float, value, "doc", "alpha")
        assert str(excinfo.value) == "doc: alpha must be a finite number, got a whole number beyond the float range"

    def test_the_largest_whole_number_a_float_holds_is_accepted(self):
        assert from_json(float, int(sys.float_info.max), "doc") == sys.float_info.max


class TestContainers:
    def test_lists_tuples_objects_and_optional_values(self):
        assert from_json(list[int], [1, 2.0], "doc") == [1, 2]
        assert from_json(tuple[float, ...], [1, 2], "doc") == (1.0, 2.0)
        assert from_json(dict[str, float], {"a": 1}, "doc") == {"a": 1.0}
        assert from_json(str | None, None, "doc") is None
        assert from_json(str | None, "x", "doc") == "x"

    def test_a_mismatch_names_its_key_path(self):
        with pytest.raises(DataError, match=r'^doc: b\[1\] must be a number, got "2"$'):
            from_json(dict[str, list[float]], {"a": [1], "b": [1, "2"]}, "doc")
        with pytest.raises(DataError, match=r"^doc must be an object, got a list$"):
            from_json(dict[str, float], [], "doc")

    def test_a_dataclass_is_a_closed_record_with_its_defaults(self):
        assert from_json(_Record, {"count": 3}, "doc") == _Record(3)
        assert from_json(_Record, {"count": 3, "share": 1, "label": "x"}, "doc") == _Record(3, 1.0, "x")
        with pytest.raises(DataError, match=r"^doc: r has unknown keys 'a', 'b' \(allowed: count, label, share\)$"):
            from_json(_Record, {"count": 3, "b": 1, "a": 2}, "doc", "r")
        with pytest.raises(DataError, match=r"^doc is missing required key 'count'$"):
            from_json(_Record, {"share": 1.0}, "doc")

    def test_a_typeddict_is_an_open_record_that_keeps_its_keys(self):
        assert from_json(_Open, {"count": 2.0, "other": "x"}, "doc") == {"count": 2}
        with pytest.raises(DataError, match=r"^doc is missing required key 'count'$"):
            from_json(_Open, {"other": 1}, "doc")

    @pytest.mark.parametrize("tp", [set[int], object, dict[int, float], tuple[int, str], int | str])
    def test_any_other_annotation_is_a_program_error(self, tp):
        with pytest.raises(TypeError, match="no JSON form"):
            from_json(tp, [], "doc")


names = st.text(max_size=6)
numbers = st.floats(allow_nan=False)
specs = st.builds(
    ModelSpec,
    alternatives=st.lists(names, max_size=4),
    parameters=st.lists(
        st.builds(ParameterDef, name=names, start=numbers, fixed=st.booleans(),
                  fixed_value=numbers, h0_value=numbers, alternative=names),
        max_size=4,
    ),
    utilities=st.dictionaries(names, st.lists(st.builds(UtilityTerm, names, names), max_size=3), max_size=3),
)


@given(specs)
def test_a_model_spec_round_trips_through_its_json_form(spec):
    assert from_json(ModelSpec, asdict(spec), "model") == spec
    assert from_json(ModelSpec, json.loads(json.dumps(asdict(spec))), "model") == spec


def _key_paths(value, path="", keys=()):
    """(key path, keys) of every value inside ``value``, in the checker's notation."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        sub = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        yield sub, (*keys, key)
        yield from _key_paths(inner, sub, (*keys, key))


REPLACEMENTS = (None, True, 1, 1.5, "x", [], {})


def _valid_config_doc():
    generator = GeneratorSpec(
        attributes=(*three_mode_generator().attributes, AttributeRule("wait", alternatives=("bus",))),
        heterogeneity={"b_tt": 0.1},
    )
    config = ExperimentConfig(
        spec=three_mode_spec(),
        generator=generator,
        true_params=dict(THREE_MODE_TRUE),
        n_persons=60,
        replications=50,
        target_parameter="b_cost",
        effect_sizes=(0.0, -0.4),
    )
    return json.loads(json.dumps(config.to_dict()))


@pytest.mark.parametrize(
    "document, load",
    [
        (json.loads(json.dumps(asdict(three_mode_spec()))), lambda doc, where: from_json(ModelSpec, doc, where)),
        (_valid_config_doc(), ExperimentConfig.from_dict),
    ],
    ids=["model", "config"],
)
def test_every_replaced_value_is_loaded_or_refused_at_its_key_path(document, load):
    # Every key path, every kind of JSON value: the checker builds the
    # record or raises a DataError at that path, and the built record's own
    # rules raise only input errors.
    paths = list(_key_paths(document))
    assert len(paths) > 40
    for path, keys in paths:
        for replacement in REPLACEMENTS:
            doc = copy.deepcopy(document)
            reduce(getitem, keys[:-1], doc)[keys[-1]] = replacement
            try:
                built = load(doc, "doc")
            except DataError as exc:
                assert str(exc).startswith(f"doc: {path} "), (path, replacement, str(exc))
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    built.validate(size_power=True) if isinstance(built, ExperimentConfig) else built.validate()
                except ChoiceStatsError:
                    pass


def _readme_tables():
    text = README.read_text(encoding="utf-8")
    tables = {}
    for name, body in re.findall(r"^\| `(\w+)` key \| JSON type \| default \|\n\|[- |]+\|\n((?:\|.*\n)+)", text, re.M):
        rows = [[cell.strip() for cell in line.strip("|").split(" | ")] for line in body.splitlines()]
        tables[name] = [(key.strip("`"), default.strip("`")) for key, _, default in rows]
    return tables


def _json_default(f):
    if f.default is MISSING and f.default_factory is MISSING:
        return "required"
    value = f.default if f.default is not MISSING else f.default_factory()
    return "{}" if is_dataclass(value) else json.dumps(value)


RECORDS = (ModelSpec, ParameterDef, UtilityTerm, ExperimentConfig, GeneratorSpec, AttributeRule)


def test_the_readme_tables_each_record_with_its_defaults():
    tables = _readme_tables()
    assert sorted(tables) == sorted(record.__name__ for record in RECORDS)
    for record in RECORDS:
        assert tables[record.__name__] == [(f.name, _json_default(f)) for f in fields(record)]
