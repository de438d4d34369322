"""File interfaces: long-format choice data (CSV) and model files (JSON).

All parse failures raise :class:`DataError` carrying the source path and a
1-based line number, so callers can print line-precise messages.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import DataError
from .model import Dataset, ModelSpec, ParameterDef, UtilityTerm

RESERVED_COLUMNS = ("person_id", "obs_id", "alt_id", "avail", "chosen")


def _flag(raw, column, source, line):
    value = raw.strip()
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"column '{column}' must be 0 or 1, got '{raw}'", source=source, line=line)


def load_dataset(path):
    """Read a long-format CSV: one row per (observation, alternative).

    Required columns: person_id, obs_id, alt_id, avail, chosen. Every other
    column is an attribute; empty cells mean the attribute does not apply to
    that alternative. Exactly one chosen row per observation, and every
    observation must carry a row for every alternative seen in the file.
    """
    source = str(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read file: {exc}", source=source) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("file is empty; a header row is mandatory", source=source, line=1)
        header = [h.strip() for h in header]
        missing = [c for c in RESERVED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"missing required columns: {missing}", source=source, line=1)
        if len(set(header)) != len(header):
            raise DataError("duplicate column names in header", source=source, line=1)
        col = {name: header.index(name) for name in RESERVED_COLUMNS}
        attr_cols = [(i, name) for i, name in enumerate(header) if name not in RESERVED_COLUMNS]

        alt_pos = {}  # alternative -> column
        obs_pos = {}  # observation id -> row
        person_ids, first_lines = [], []
        cells = {}  # (row, column) -> line, in file order
        avail, chosen = [], []
        values = [[] for _ in attr_cols]  # per attribute: a float, or None if empty
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"expected {len(header)} fields, got {len(row)}", source=source, line=line
                )
            person_id = row[col["person_id"]].strip()
            obs_id = row[col["obs_id"]].strip()
            alt_id = row[col["alt_id"]].strip()
            if not person_id or not obs_id or not alt_id:
                raise DataError(
                    "person_id, obs_id and alt_id must be non-empty", source=source, line=line
                )
            j = alt_pos.setdefault(alt_id, len(alt_pos))
            avail.append(_flag(row[col["avail"]], "avail", source, line))
            chosen.append(_flag(row[col["chosen"]], "chosen", source, line))
            for (c, name), column in zip(attr_cols, values):
                cell = row[c].strip()
                try:
                    column.append(float(cell) if cell else None)
                except ValueError:
                    raise DataError(
                        f"column '{name}' is not numeric: '{row[c]}'", source=source, line=line
                    )
            i = obs_pos.setdefault(obs_id, len(obs_pos))
            if i == len(person_ids):
                person_ids.append(person_id)
                first_lines.append(line)
            elif person_ids[i] != person_id:
                raise DataError(
                    f"observation '{obs_id}' appears under two persons "
                    f"('{person_ids[i]}' and '{person_id}')",
                    source=source,
                    line=line,
                )
            if (i, j) in cells:
                raise DataError(
                    f"duplicate row for observation '{obs_id}', alternative '{alt_id}'",
                    source=source,
                    line=line,
                )
            cells[i, j] = line

    if not obs_pos:
        raise DataError("file contains a header but no data rows", source=source, line=1)

    obs_ids, alternatives = list(obs_pos), list(alt_pos)
    shape = (len(obs_ids), len(alternatives))
    rows, columns = np.array(list(cells)).T

    def grid(cell_values, fill):
        out = np.full(shape, fill)
        out[rows, columns] = cell_values
        return out

    present, picked = grid(True, False), grid(chosen, False)
    n_chosen = picked.sum(axis=1)
    bad = np.column_stack([~present.all(axis=1), n_chosen != 1])
    if bad.any():
        i, check = np.argwhere(bad)[0]
        raise DataError(
            f"observation '{obs_ids[i]}' has no row for alternative "
            f"'{alternatives[np.argmin(present[i])]}'"
            if check == 0
            else f"observation '{obs_ids[i]}' must have exactly one chosen row, got {n_chosen[i]}",
            source=source,
            line=first_lines[i],
        )

    values = [np.array(column, dtype=object) for column in values]
    dataset = Dataset(
        alternatives,
        person_ids,
        obs_ids,
        picked.argmax(axis=1),
        grid(avail, False),
        {name: grid(v.astype(float), np.nan) for (_, name), v in zip(attr_cols, values)},
        {name: grid(np.not_equal(v, None), False) for (_, name), v in zip(attr_cols, values)},
    )
    try:
        dataset.validate()
    except Exception as exc:
        raise DataError(str(exc), source=source) from exc
    return dataset


def save_dataset(dataset, path):
    """Write a dataset back to the long CSV format accepted by load_dataset."""
    names = sorted(dataset.attributes)
    # Nested lists of Python floats: repr gives the shortest round-trip
    # text, where a numpy scalar's repr would name its type.
    values = [dataset.attributes[name].tolist() for name in names]
    carried = [dataset.carried[name].tolist() for name in names]
    avail, chosen = dataset.avail.tolist(), dataset.chosen.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(RESERVED_COLUMNS) + names)
        for i, (person_id, obs_id) in enumerate(zip(dataset.person_ids, dataset.obs_ids)):
            for j, alt in enumerate(dataset.alternatives):
                writer.writerow(
                    [person_id, obs_id, alt, int(avail[i][j]), int(chosen[i] == j)]
                    + [repr(v[i][j]) if c[i][j] else "" for v, c in zip(values, carried)]
                )


def read_json(path):
    """The JSON object in ``path``; any other document raises DataError."""
    source = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc.msg}", source=source, line=exc.lineno) from exc
    except OSError as exc:
        raise DataError(f"cannot read file: {exc}", source=source) from exc
    if not isinstance(doc, dict):
        raise DataError(f"expected a JSON object, got {type(doc).__name__}", source=source)
    return doc


def model_spec_from_doc(doc):
    """Build a ModelSpec from its JSON document form (fields verbatim)."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    alternatives = [str(a) for a in doc["alternatives"]]
    parameters = [
        ParameterDef(
            name=str(p["name"]),
            start=float(p.get("start", 0.0)),
            fixed=bool(p.get("fixed", False)),
            fixed_value=float(p.get("fixed_value", 0.0)),
            h0_value=float(p.get("h0_value", 0.0)),
            alternative=str(p.get("alternative", "auto")),
        )
        for p in doc["parameters"]
    ]
    utilities = {
        str(alt): [UtilityTerm(param=str(t["param"]), attribute=str(t["attribute"])) for t in terms]
        for alt, terms in doc.get("utilities", {}).items()
    }
    return ModelSpec(alternatives, parameters, utilities)


def model_spec_to_doc(spec):
    return {
        "alternatives": list(spec.alternatives),
        "parameters": [
            {
                "name": p.name,
                "start": p.start,
                "fixed": p.fixed,
                "fixed_value": p.fixed_value,
                "h0_value": p.h0_value,
                "alternative": p.alternative,
            }
            for p in spec.parameters
        ],
        "utilities": {
            alt: [{"param": t.param, "attribute": t.attribute} for t in terms]
            for alt, terms in spec.utilities.items()
        },
    }


def load_model_spec(path):
    """Read a model file: alternatives, parameter declarations, utilities."""
    doc = read_json(path)
    source = str(path)
    try:
        spec = model_spec_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file: {exc!r}", source=source) from exc
    try:
        spec.validate()
    except Exception as exc:
        raise DataError(str(exc), source=source) from exc
    return spec


def save_model_spec(spec, path):
    write_json(model_spec_to_doc(spec), path)


def write_json(doc, path):
    """Write ``doc`` as sorted, indented JSON.

    NaN and infinity are not JSON; they raise ValueError before the file is
    opened, so callers write None for a missing number.
    """
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def encode_matrix(matrix, rows, cols):
    """JSON form of a labelled matrix: {"rows", "cols", "data"}."""
    m = np.asarray(matrix, dtype=float)
    return {"rows": list(rows), "cols": list(cols), "data": [[float(x) for x in r] for r in m]}


def decode_matrix(doc):
    return np.asarray(doc["data"], dtype=float), list(doc["rows"]), list(doc["cols"])
