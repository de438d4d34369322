"""Shared builders and independent numerical oracles for the test suite.

The finite-difference routines here are deliberately dumb: central
differences of the log-likelihood (for the score) and of the analytic score
(for the Hessian), with the step sizes and tolerances fixed below. They are
the yardstick the analytic derivatives are measured against, so they must
not share code with the implementations under test.
"""

import csv

import numpy as np

from choicestats import (
    AttributeRule,
    DataError,
    Dataset,
    GeneratorSpec,
    ModelSpec,
    ParameterDef,
    UtilityTerm,
    simulate_dataset,
)
from choicestats.dataio import RESERVED_COLUMNS
from choicestats.model import PROBABILITY_FLOOR

GRADIENT_STEP_SCALE = 1e-6
GRADIENT_RTOL = 1e-6
HESSIAN_STEP = 1e-5
HESSIAN_RTOL = 1e-5


def binary_spec():
    """Two alternatives, one constant and one attribute coefficient."""
    return ModelSpec(
        alternatives=("car", "bus"),
        parameters=(
            ParameterDef("asc_bus"),
            ParameterDef("b_tt", start=-0.05, alternative="less"),
        ),
        utilities={
            "car": (UtilityTerm("b_tt", "tt"),),
            "bus": (UtilityTerm("asc_bus", "_const"), UtilityTerm("b_tt", "tt")),
        },
    )


def three_mode_spec():
    """Three alternatives, two constants, travel time and cost coefficients."""
    return ModelSpec(
        alternatives=("car", "bus", "rail"),
        parameters=(
            ParameterDef("asc_bus"),
            ParameterDef("asc_rail"),
            ParameterDef("b_tt", start=-0.05, alternative="less"),
            ParameterDef("b_cost", start=-0.1, alternative="less"),
        ),
        utilities={
            "car": (UtilityTerm("b_tt", "tt"), UtilityTerm("b_cost", "cost")),
            "bus": (
                UtilityTerm("asc_bus", "_const"),
                UtilityTerm("b_tt", "tt"),
                UtilityTerm("b_cost", "cost"),
            ),
            "rail": (
                UtilityTerm("asc_rail", "_const"),
                UtilityTerm("b_tt", "tt"),
                UtilityTerm("b_cost", "cost"),
            ),
        },
    )


def shift_spec():
    """three_mode_spec with a free constant on car too: with a constant on
    every alternative, utilities are identified only up to a common shift."""
    spec = three_mode_spec()
    car = (UtilityTerm("asc_car", "_const"), *spec.utilities["car"])
    return ModelSpec(spec.alternatives, (ParameterDef("asc_car"), *spec.parameters), {**spec.utilities, "car": car})


def three_mode_generator():
    return GeneratorSpec(
        attributes=(
            AttributeRule("tt", dist="uniform", low=5.0, high=60.0),
            AttributeRule("cost", dist="uniform", low=1.0, high=12.0),
        )
    )


THREE_MODE_TRUE = {"asc_bus": 0.5, "asc_rail": 0.2, "b_tt": -0.05, "b_cost": -0.15}


def three_mode_data(n_persons=400, obs_per_person=1, seed=21, true=None, heterogeneity=None):
    gen = three_mode_generator()
    if heterogeneity:
        gen = GeneratorSpec(attributes=gen.attributes, heterogeneity=heterogeneity)
    return simulate_dataset(
        three_mode_spec(),
        true or THREE_MODE_TRUE,
        gen,
        n_persons=n_persons,
        obs_per_person=obs_per_person,
        seed=seed,
    )


def hand_dataset(alternatives, observations):
    """Dataset from one ``(person_id, obs_id, chosen, availability,
    attributes)`` tuple per observation.

    ``chosen`` is a position in ``alternatives``; ``availability`` and
    ``attributes`` (a dict of attribute values) hold one entry per
    alternative, and an attribute absent from an alternative's dict is not
    carried there. Nothing is validated, so invalid data can be built.
    """
    shape = (len(observations), len(alternatives))
    cells = [obs[4] for obs in observations]
    names = dict.fromkeys(name for row in cells for attrs in row for name in attrs)
    return Dataset(
        alternatives=list(alternatives),
        person_ids=[obs[0] for obs in observations],
        obs_ids=[obs[1] for obs in observations],
        chosen=np.array([obs[2] for obs in observations], dtype=np.int64),
        avail=np.array([obs[3] for obs in observations], dtype=bool).reshape(shape),
        attributes={
            name: np.array(
                [[a.get(name, np.nan) for a in row] for row in cells], dtype=float
            ).reshape(shape)
            for name in names
        },
        carried={
            name: np.array([[name in a for a in row] for row in cells], dtype=bool).reshape(shape)
            for name in names
        },
    )


def take_observations(dataset, rows):
    """The observations at positions ``rows``, in that order."""
    rows = np.asarray(rows, dtype=np.int64)
    return Dataset(
        alternatives=list(dataset.alternatives),
        person_ids=[dataset.person_ids[i] for i in rows],
        obs_ids=[dataset.obs_ids[i] for i in rows],
        chosen=dataset.chosen[rows],
        avail=dataset.avail[rows],
        attributes={name: values[rows] for name, values in dataset.attributes.items()},
        carried={name: mask[rows] for name, mask in dataset.carried.items()},
    )


def same_data(a, b):
    """Whether two datasets hold the same columns, NaN cells matching NaN."""
    return (
        a.alternatives == b.alternatives
        and a.person_ids == b.person_ids
        and a.obs_ids == b.obs_ids
        and np.array_equal(a.chosen, b.chosen)
        and np.array_equal(a.avail, b.avail)
        and a.attributes.keys() == b.attributes.keys()
        and a.carried.keys() == b.carried.keys()
        and all(np.array_equal(v, b.attributes[k], equal_nan=True) for k, v in a.attributes.items())
        and all(np.array_equal(m, b.carried[k]) for k, m in a.carried.items())
    )


def _flag(raw, column, source, line):
    value = raw.strip()
    if value == "0":
        return False
    if value == "1":
        return True
    raise DataError(f"column '{column}' must be 0 or 1, got '{raw}'", source=source, line=line)


def loop_load_dataset(path):
    """load_dataset one record at a time, each check raising as it fails.

    The reference for load_dataset's column-wise parse, which must return the
    same Dataset or raise the same message at the same line. Observations
    are validated here by Dataset.validate, whose errors carry no line.
    """
    source = str(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read file: {exc}", source=source) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            return _loop_rows(reader, source)
        except csv.Error as exc:
            raise DataError(f"cannot parse CSV: {exc}", source=source, line=reader.line_num)


def _loop_rows(reader, source):
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
            raise DataError(f"expected {len(header)} fields, got {len(row)}", source=source, line=line)
        person_id = row[col["person_id"]].strip()
        obs_id = row[col["obs_id"]].strip()
        alt_id = row[col["alt_id"]].strip()
        if not person_id or not obs_id or not alt_id:
            raise DataError("person_id, obs_id and alt_id must be non-empty", source=source, line=line)
        j = alt_pos.setdefault(alt_id, len(alt_pos))
        avail.append(_flag(row[col["avail"]], "avail", source, line))
        chosen.append(_flag(row[col["chosen"]], "chosen", source, line))
        for (c, name), column in zip(attr_cols, values):
            cell = row[c].strip()
            try:
                column.append(float(cell) if cell else None)
            except ValueError:
                raise DataError(f"column '{name}' is not numeric: '{row[c]}'", source=source, line=line)
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
    for i in range(len(obs_ids)):
        if not present[i].all():
            raise DataError(
                f"observation '{obs_ids[i]}' has no row for alternative "
                f"'{alternatives[np.argmin(present[i])]}'",
                source=source,
                line=first_lines[i],
            )
        if n_chosen[i] != 1:
            raise DataError(
                f"observation '{obs_ids[i]}' must have exactly one chosen row, got {n_chosen[i]}",
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


def fd_gradient(design, params):
    """Central difference of the log-likelihood, one coordinate at a time."""
    params = np.asarray(params, dtype=float)
    out = np.empty_like(params)
    for k in range(params.size):
        h = GRADIENT_STEP_SCALE * max(1.0, abs(params[k]))
        up = params.copy()
        down = params.copy()
        up[k] += h
        down[k] -= h
        out[k] = (design.log_likelihood(up) - design.log_likelihood(down)) / (2.0 * h)
    return out


def fd_hessian(design, params):
    """Central difference of the analytic score; an independent Hessian check."""
    params = np.asarray(params, dtype=float)
    k = params.size
    out = np.empty((k, k))
    for j in range(k):
        up = params.copy()
        down = params.copy()
        up[j] += HESSIAN_STEP
        down[j] -= HESSIAN_STEP
        out[:, j] = (design.evaluate(up)[1] - design.evaluate(down)[1]) / (2.0 * HESSIAN_STEP)
    return out


def loop_compile(dataset, spec):
    """(X, offset) one observation, alternative and term at a time.

    The reference for build_design's column-wise compile, which must match it
    bit for bit because it adds the same terms in the same order. The
    dataset's alternatives must be in the specification's order.
    """
    free = spec.free_names()
    fixed = {p.name: p.fixed_value for p in spec.parameters if p.fixed}
    X = np.zeros((dataset.n_obs, len(spec.alternatives), len(free)))
    offset = np.zeros((dataset.n_obs, len(spec.alternatives)))
    for i in range(dataset.n_obs):
        for j, alt in enumerate(spec.alternatives):
            if not dataset.avail[i, j]:
                continue
            for term in spec.utilities.get(alt, []):
                x = 1.0 if term.attribute == "_const" else dataset.attributes[term.attribute][i, j]
                if term.param in fixed:
                    offset[i, j] += fixed[term.param] * x
                else:
                    X[i, j, free.index(term.param)] += x
    return X, offset


def einsum_evaluate(design, params):
    """(ll, gradient, Hessian, floored) by the observation-major einsum kernel.

    The reference for DesignArrays.evaluate, which reads the same design
    parameter-major and sums in another order, so the two agree to rounding
    rather than bit for bit. Reads only the public (n_obs, n_alts[, k]) arrays
    and each observation's person weight.
    """
    X, rows = design.X, np.arange(design.n_obs)
    w = design.person_weights[design.person_index]
    v = np.where(design.avail, design.offset + X @ params, -np.inf)
    v -= v.max(axis=1, keepdims=True)
    p = np.exp(v)
    p /= p.sum(axis=1, keepdims=True)
    p_chosen = p[rows, design.chosen]
    floored = bool(np.any(p_chosen < PROBABILITY_FLOOR))
    ll = float(np.sum(w * np.log(np.maximum(p_chosen, PROBABILITY_FLOOR))))
    xbar = np.einsum("nj,njk->nk", p, X)
    gradient = np.einsum("n,nk->k", w, X[rows, design.chosen] - xbar)
    centered = X - xbar[:, None, :]
    h = -np.einsum("n,nj,njk,njl->kl", w, p, centered, centered, optimize=True)
    return ll, gradient, (h + h.T) / 2.0, floored


def concat_take_persons(design, person_order):
    """The arrays of a person-level resample, one person at a time.

    Each listed person's rows in observation order, concatenated, a person
    listed m times giving m copies: the resample that a design weighted by
    the persons' counts in ``person_order`` stands for.
    """
    per_person = [np.flatnonzero(design.person_index == p) for p in range(design.n_persons)]
    picked = [per_person[p] for p in person_order]
    rows = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    return {
        "X": design.X[rows],
        "offset": design.offset[rows],
        "avail": design.avail[rows],
        "chosen": design.chosen[rows],
        "person_index": np.repeat(np.arange(len(picked)), [len(r) for r in picked]),
        "person_ids": [f"{design.person_ids[p]}~{i}" for i, p in enumerate(person_order)],
    }


def observation_scores(design, params):
    """Score rows x_chosen - sum_j p_j x_j, one per observation: the rows
    that DesignArrays.score sums into one row per person. The mean is taken
    over the design's parameter-major (k, n_alts, n_obs) storage, ``X.T``."""
    X_t, p_t = design.X.T, design.probabilities(params).T
    xbar = np.einsum("kjn,jn->kn", X_t, p_t)
    return (X_t[:, design.chosen, np.arange(design.n_obs)] - xbar).T


def lm_oracle(design, params, bhhh=False):
    """Lagrange multiplier statistic g' I^-1 g at ``params``, from a fresh
    ``design.evaluate`` and a plain linear solve: I is the negative Hessian,
    or with ``bhhh`` the sum of the person score outer products, each person
    counted by its weight. The oracle of both routes of ``lm_test_at``."""
    _, gradient, hessian, _ = design.evaluate(params)
    information = -hessian
    if bhhh:
        rows = design.score(params) * np.sqrt(design.person_weights)[:, None]
        information = rows.T @ rows
    return float(gradient @ np.linalg.solve(information, gradient))


def assert_close_rel(actual, expected, rtol, context=""):
    """|actual - expected| <= rtol * max(1, |expected|), element-wise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(1.0, np.abs(expected))
    gap = np.abs(actual - expected)
    worst = float((gap / scale).max())
    assert worst <= rtol, f"{context} worst relative gap {worst:.3e} exceeds {rtol:g}"
