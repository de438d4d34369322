"""File interfaces: long-format choice data (CSV) and model files (JSON).

All parse failures raise :class:`DataError` carrying the source path and a
1-based line number, so callers can print line-precise messages.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import Dataset, ModelSpec, ParameterDef, UtilityTerm
from .util import first_failure

RESERVED_COLUMNS = ("person_id", "obs_id", "alt_id", "avail", "chosen")


def load_dataset(path):
    """Read a long-format CSV: one row per (observation, alternative).

    Required columns: person_id, obs_id, alt_id, avail, chosen. Every other
    column is an attribute; empty cells mean the attribute does not apply to
    that alternative. Exactly one chosen row per observation, and every
    observation must carry a row for every alternative seen in the file.
    Blank records are skipped and cells stripped. The first failing record
    is reported, at its first failing check in the order of ``checks``.
    """
    source = str(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read file: {exc}", source=source) from exc
    rows, end = [], None
    with fh:
        reader = csv.reader(fh)
        try:
            rows.extend(reader)
        except csv.Error as exc:
            end = DataError(f"cannot parse CSV: {exc}", source=source, line=reader.line_num)
        except UnicodeDecodeError:  # decoded in blocks, so the byte's line is found in the raw file
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise DataError(f"not UTF-8 text: {exc.reason}", source, line) from None
    if not rows:
        raise end or DataError("file is empty; a header row is mandatory", source=source, line=1)
    header = [h.strip() for h in rows.pop(0)]
    missing = [c for c in RESERVED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"missing required columns: {missing}", source=source, line=1)
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header", source=source, line=1)

    # rows[i] is record i + 2; blank records are skipped and a ragged one ends them.
    nonblank = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
    ragged = np.flatnonzero(nonblank & (np.fromiter(map(len, rows), int, len(rows)) != len(header)))
    if ragged.size:
        stop = int(ragged[0])
        end = DataError(f"expected {len(header)} fields, got {len(rows[stop])}", source, stop + 2)
        nonblank[stop:] = False
    kept = np.flatnonzero(nonblank)
    if not kept.size:
        raise end or DataError("file contains a header but no data rows", source=source, line=1)
    cells = dict(zip(header, zip(*map(rows.__getitem__, kept.tolist()))))
    del rows
    # Python strings, as a numpy string array drops trailing NULs: '1\x00' would pass.
    person, obs, alt, avail, chosen = (
        np.array([c.strip() for c in cells[name]], object) for name in RESERVED_COLUMNS
    )
    bad_flags = [(flag != "0") & (flag != "1") for flag in (avail, chosen)]
    avail, chosen = avail == "1", chosen == "1"
    obs_pos, alt_pos = {}, {}
    obs_index = np.array([obs_pos.setdefault(o, len(obs_pos)) for o in obs], dtype=np.intp)
    alt_index = np.array([alt_pos.setdefault(a, len(alt_pos)) for a in alt], dtype=np.intp)
    obs_ids, alternatives = list(obs_pos), list(alt_pos)
    names = [name for name in header if name not in RESERVED_COLUMNS]
    values, carried, not_numeric = zip(*map(_numbers, map(cells.get, names))) if names else [()] * 3
    _, first = np.unique(obs_index, return_index=True)  # each observation's first row
    key = obs_index * len(alternatives) + alt_index
    _, first_cell, cell = np.unique(key, return_index=True, return_inverse=True)
    checks = [(person == "") | (obs == "") | (alt == ""), *bad_flags, *not_numeric]
    checks += [person != person[first[obs_index]], first_cell[cell] != np.arange(len(kept))]
    failure = first_failure(checks)
    if failure:
        r, check = failure
        texts = ["person_id, obs_id and alt_id must be non-empty"]
        texts += [f"column '{c}' must be 0 or 1, got '{cells[c][r]}'" for c in RESERVED_COLUMNS[3:]]
        texts += [f"column '{name}' is not numeric: '{cells[name][r]}'" for name in names]
        texts.append(f"observation '{obs[r]}' appears under two persons "
                     f"('{person[first[obs_index[r]]]}' and '{person[r]}')")
        texts.append(f"duplicate row for observation '{obs[r]}', alternative '{alt[r]}'")
        raise DataError(texts[check], source=source, line=int(kept[r]) + 2)
    if end:
        raise end

    def grid(cell_values, fill):
        out = np.full((len(obs_ids), len(alternatives)), fill)
        out[obs_index, alt_index] = cell_values
        return out

    present, picked, avail = grid(True, False), grid(chosen, False), grid(avail, False)
    n_chosen, chosen = picked.sum(axis=1), picked.argmax(axis=1)
    # Whole observations: their rows, then the Dataset.validate checks rows can fail.
    stages = [~present.all(1), n_chosen != 1], [~avail.any(1), (picked & ~avail).any(1)]
    for stage, failure in enumerate(map(first_failure, stages)):
        if failure:
            i, check = failure
            what = [
                f"has no row for alternative '{alternatives[np.argmin(present[i])]}'",
                f"must have exactly one chosen row, got {n_chosen[i]}",
                "has no available alternative",
                f"chose unavailable alternative '{alternatives[chosen[i]]}'",
            ][2 * stage + check]
            raise DataError(f"observation '{obs_ids[i]}' {what}", source, int(kept[first[i]]) + 2)
    values = {name: grid(v, np.nan) for name, v in zip(names, values)}
    carried = {name: grid(c, False) for name, c in zip(names, carried)}
    return Dataset(alternatives, person[first].tolist(), obs_ids, chosen, avail, values, carried)


def _numbers(column):
    """(values, carried, bad) of an attribute column: an empty cell is NaN
    and not carried, a cell that is not a number is bad."""
    n = len(column)
    try:
        return np.array(column, dtype=float), np.ones(n, bool), np.zeros(n, bool)
    except ValueError:
        values, carried, bad = np.full(n, np.nan), np.ones(n, bool), np.zeros(n, bool)
    for r, cell in enumerate(c.strip() for c in column):
        try:
            values[r], carried[r] = float(cell or "nan"), bool(cell)
        except ValueError:
            bad[r] = True
    return values, carried, bad


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
