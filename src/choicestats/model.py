"""Multinomial logit model core.

Data containers (observations, datasets, model specifications), choice
probabilities with overflow-safe evaluation, the sample log-likelihood with
its analytic score and Hessian, and a seeded simulator for experiments.

Utility of alternative j for observation n is a linear index
``V_nj = sum_m beta_m * x_njm`` over the terms declared in the specification.
Probabilities, the likelihood, and its derivatives are evaluated on a
compiled design (:class:`DesignArrays`) so repeated evaluation during
optimisation stays vectorised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    IdentificationRiskWarning,
    SpecMismatchError,
)

#: Attribute name reserved for a constant regressor of value 1.
CONST_ATTRIBUTE = "_const"

#: Chosen-alternative probabilities below this floor are clamped before the
#: log so that a single degenerate observation cannot poison the sample
#: log-likelihood with -inf.
PROBABILITY_FLOOR = 1e-300

SIDEDNESS_CHOICES = ("less", "greater", "two_sided", "auto")


@dataclass(frozen=True)
class ParameterDef:
    """Declaration of one utility coefficient.

    Parameters
    ----------
    name : str
        Unique coefficient name.
    start : float
        Starting value for the optimiser.
    fixed : bool
        Fixed coefficients are not estimated; their contribution enters the
        utility as a constant offset.
    fixed_value : float
        Value used when ``fixed`` is true.
    h0_value : float
        Null-hypothesis value for the default reported test (0 for most
        coefficients, 1 for structural parameters tested against one).
    alternative : str
        Sidedness of the default test: "less", "greater", "two_sided" or
        "auto" (one-sided in the direction of the estimate's sign).
    """

    name: str
    start: float = 0.0
    fixed: bool = False
    fixed_value: float = 0.0
    h0_value: float = 0.0
    alternative: str = "auto"


@dataclass(frozen=True)
class UtilityTerm:
    """One ``coefficient * attribute`` product in an alternative's utility."""

    param: str
    attribute: str


@dataclass
class ModelSpec:
    """Model specification: alternatives, coefficients, utility structure.

    ``utilities`` maps an alternative identifier to the list of terms in its
    utility. Alternatives without an entry have utility fixed to zero, which
    is the usual normalisation. The attribute name ``_const`` is reserved and
    resolves to the value 1.
    """

    alternatives: list[str]
    parameters: list[ParameterDef]
    utilities: dict[str, list[UtilityTerm]]

    def __post_init__(self):
        # Canonical container types so structurally equal specifications
        # compare equal regardless of how they were built.
        self.alternatives = list(self.alternatives)
        self.parameters = list(self.parameters)
        self.utilities = {alt: list(terms) for alt, terms in self.utilities.items()}

    def validate(self):
        """Check structural consistency; warn on identification risks."""
        if not self.alternatives:
            raise SpecMismatchError("specification declares no alternatives")
        if len(set(self.alternatives)) != len(self.alternatives):
            raise SpecMismatchError("alternative identifiers are not unique")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise SpecMismatchError("parameter names are not unique")
        declared = set(names)
        for p in self.parameters:
            if p.alternative not in SIDEDNESS_CHOICES:
                raise SpecMismatchError(
                    f"parameter '{p.name}': alternative must be one of "
                    f"{SIDEDNESS_CHOICES}, got '{p.alternative}'"
                )
            if not (np.isfinite(p.start) and np.isfinite(p.fixed_value) and np.isfinite(p.h0_value)):
                raise SpecMismatchError(f"parameter '{p.name}' has non-finite declaration values")
        alts = set(self.alternatives)
        for alt, terms in self.utilities.items():
            if alt not in alts:
                raise SpecMismatchError(f"utility declared for unknown alternative '{alt}'")
            for term in terms:
                if term.param not in declared:
                    raise SpecMismatchError(
                        f"alternative '{alt}' references undeclared parameter '{term.param}'"
                    )
        if not self.free_names():
            raise SpecMismatchError("specification has no free parameters")
        # Constants on every alternative leave the model unidentified up to a
        # shift. Estimation will surface the singular Hessian; warn early.
        fixed = {p.name for p in self.parameters if p.fixed}
        if all(
            any(t.attribute == CONST_ATTRIBUTE and t.param not in fixed for t in self.utilities.get(alt, []))
            for alt in self.alternatives
        ):
            warnings.warn(
                "every alternative carries a free constant; the model is not "
                "identified up to a utility shift",
                IdentificationRiskWarning,
                stacklevel=2,
            )

    def parameter(self, name):
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named '{name}'")

    def free_parameters(self):
        return [p for p in self.parameters if not p.fixed]

    def free_names(self):
        return [p.name for p in self.parameters if not p.fixed]

    @property
    def k(self):
        """Number of estimated (free) parameters."""
        return len(self.free_names())

    def with_fixed(self, name, value):
        """New specification with ``name`` fixed at ``value`` (for nesting)."""
        found = False
        params = []
        for p in self.parameters:
            if p.name == name:
                params.append(replace(p, fixed=True, fixed_value=float(value)))
                found = True
            else:
                params.append(p)
        if not found:
            raise KeyError(f"no parameter named '{name}'")
        return ModelSpec(list(self.alternatives), params, dict(self.utilities))

    def starts(self):
        return np.array([p.start for p in self.free_parameters()], dtype=float)


@dataclass(frozen=True)
class Observation:
    """A single choice situation.

    ``chosen`` and ``availability`` are positional with respect to the owning
    dataset's alternative order; ``attributes`` holds one mapping of attribute
    name to value per alternative, in the same order.
    """

    person_id: str
    obs_id: str
    chosen: int
    availability: tuple[bool, ...]
    attributes: tuple[Mapping[str, float], ...]


@dataclass
class Dataset:
    """An ordered collection of observations over a fixed alternative set."""

    alternatives: list[str]
    observations: list[Observation]

    def persons(self):
        """Person identifiers in order of first appearance."""
        seen = {}
        for obs in self.observations:
            seen.setdefault(obs.person_id, None)
        return list(seen)

    @property
    def n_obs(self):
        return len(self.observations)

    @property
    def n_persons(self):
        return len(self.persons())

    def validate(self):
        if not self.observations:
            raise SpecMismatchError("dataset contains no observations")
        j = len(self.alternatives)
        seen_obs = set()
        for obs in self.observations:
            if len(obs.availability) != j or len(obs.attributes) != j:
                raise SpecMismatchError(
                    f"observation '{obs.obs_id}' is not aligned with the "
                    f"{j} dataset alternatives"
                )
            if obs.obs_id in seen_obs:
                raise SpecMismatchError(f"duplicate observation id '{obs.obs_id}'")
            seen_obs.add(obs.obs_id)
            if not any(obs.availability):
                raise SpecMismatchError(f"observation '{obs.obs_id}' has no available alternative")
            if not (0 <= obs.chosen < j):
                raise SpecMismatchError(f"observation '{obs.obs_id}' chose an unknown alternative")
            if not obs.availability[obs.chosen]:
                raise SpecMismatchError(
                    f"observation '{obs.obs_id}' chose unavailable alternative "
                    f"'{self.alternatives[obs.chosen]}'"
                )

    def reordered(self, alternatives):
        """The same data with positional fields permuted to a new alt order."""
        if set(alternatives) != set(self.alternatives):
            raise SpecMismatchError(
                f"alternative sets differ: dataset {self.alternatives} vs {list(alternatives)}"
            )
        perm = [self.alternatives.index(alt) for alt in alternatives]
        observations = [
            Observation(
                person_id=o.person_id,
                obs_id=o.obs_id,
                chosen=perm.index(o.chosen),
                availability=tuple(o.availability[p] for p in perm),
                attributes=tuple(o.attributes[p] for p in perm),
            )
            for o in self.observations
        ]
        return Dataset(list(alternatives), observations)


@dataclass
class DesignArrays:
    """Dataset and specification compiled to dense arrays.

    Attributes
    ----------
    X : ndarray, shape (n_obs, n_alts, k)
        Attribute values multiplying the free parameters. Entries for
        unavailable alternatives are zero and never contribute (their choice
        probability is exactly zero).
    offset : ndarray, shape (n_obs, n_alts)
        Utility contribution of fixed parameters.
    avail : ndarray of bool, shape (n_obs, n_alts)
    chosen : ndarray of int, shape (n_obs,)
    person_index : ndarray of int, shape (n_obs,)
        Position of the observation's person in ``person_ids``.
    """

    X: np.ndarray
    offset: np.ndarray
    avail: np.ndarray
    chosen: np.ndarray
    person_index: np.ndarray
    person_ids: list[str]
    free_names: list[str]
    start_values: np.ndarray

    def __post_init__(self):
        self._rows = np.arange(self.X.shape[0])
        self._person_rows = None

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def n_alts(self):
        return self.X.shape[1]

    @property
    def k(self):
        return self.X.shape[2]

    @property
    def n_persons(self):
        return len(self.person_ids)

    def utilities(self, params):
        v = self.offset + self.X @ params
        return np.where(self.avail, v, -np.inf)

    def probabilities(self, params):
        """Choice probabilities with max-utility subtraction.

        Unavailable alternatives come out exactly zero; available ones sum to
        one per observation up to float rounding.
        """
        v = self.utilities(params)
        v -= v.max(axis=1, keepdims=True)
        p = np.exp(v)
        p /= p.sum(axis=1, keepdims=True)
        return p

    def _chosen_log_likelihood(self, p):
        p_chosen = p[self._rows, self.chosen]
        floored = bool(np.any(p_chosen < PROBABILITY_FLOOR))
        return float(np.sum(np.log(np.maximum(p_chosen, PROBABILITY_FLOOR)))), floored

    def log_likelihood(self, params):
        return self._chosen_log_likelihood(self.probabilities(params))[0]

    def null_log_likelihood(self):
        """Log-likelihood of equal probabilities over available alternatives."""
        return float(-np.sum(np.log(self.avail.sum(axis=1))))

    def evaluate(self, params):
        """(ll, gradient, Hessian, floored) from one softmax pass.

        The Hessian is -sum_n sum_j p_nj (x_nj - xbar_n)(x_nj - xbar_n)'; floored
        says whether a chosen probability was clamped at PROBABILITY_FLOOR.
        """
        p = self.probabilities(params)
        ll, floored = self._chosen_log_likelihood(p)
        xbar = np.einsum("nj,njk->nk", p, self.X)
        gradient = (self.X[self._rows, self.chosen] - xbar).sum(axis=0)
        centered = self.X - xbar[:, None, :]
        h = -np.einsum("nj,njk,njl->kl", p, centered, centered, optimize=True)
        # The contraction order is not bitwise symmetric; the matrix is.
        return ll, gradient, (h + h.T) / 2.0, floored

    def score(self, params, grouping="person"):
        """Score rows x_chosen - sum_j p_j x_j, per observation or summed per person."""
        p = self.probabilities(params)
        rows = self.X[self._rows, self.chosen] - np.einsum("nj,njk->nk", p, self.X)
        if grouping == "observation":
            return rows
        if grouping != "person":
            raise ValueError(f"grouping must be 'person' or 'observation', got '{grouping}'")
        out = np.zeros((self.n_persons, self.k))
        np.add.at(out, self.person_index, rows)
        return out

    def _person_row_lists(self):
        if self._person_rows is None:
            buckets = [[] for _ in range(self.n_persons)]
            for row, person in enumerate(self.person_index):
                buckets[person].append(row)
            self._person_rows = [np.asarray(b, dtype=np.int64) for b in buckets]
        return self._person_rows

    def take_persons(self, person_order):
        """Sub-design holding the given persons' rows, one copy per entry.

        A person listed m times contributes all of its observations m times,
        each copy grouped under a fresh person index. This is the fast path
        behind person-level resampling.
        """
        per_person = self._person_row_lists()
        picked = [per_person[p] for p in person_order]
        rows = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
        counts = [len(r) for r in picked]
        return DesignArrays(
            X=self.X[rows],
            offset=self.offset[rows],
            avail=self.avail[rows],
            chosen=self.chosen[rows],
            person_index=np.repeat(np.arange(len(picked)), counts),
            person_ids=[f"{self.person_ids[p]}~{i}" for i, p in enumerate(person_order)],
            free_names=list(self.free_names),
            start_values=self.start_values.copy(),
        )

    def fix_column(self, index, value):
        """Design with free parameter ``index`` fixed at ``value``.

        Equivalent to recompiling against spec.with_fixed(name, value): the
        column moves into the offset.
        """
        keep = [c for c in range(self.k) if c != index]
        return DesignArrays(
            X=self.X[:, :, keep],
            offset=self.offset + float(value) * self.X[:, :, index],
            avail=self.avail,
            chosen=self.chosen,
            person_index=self.person_index,
            person_ids=list(self.person_ids),
            free_names=[self.free_names[c] for c in keep],
            start_values=self.start_values[keep],
        )


def build_design(dataset, spec):
    """Compile a dataset against a specification.

    Parameters
    ----------
    dataset : Dataset
    spec : ModelSpec

    Returns
    -------
    DesignArrays

    Raises
    ------
    SpecMismatchError
        If the alternative sets differ, an attribute referenced by the
        specification is missing for an available alternative, or an
        attribute value is not finite.
    """
    spec.validate()
    dataset.validate()
    if dataset.alternatives != spec.alternatives:
        dataset = dataset.reordered(spec.alternatives)

    observations = dataset.observations
    checks = [
        (j, t.attribute)
        for j, alt in enumerate(spec.alternatives)
        for t in spec.utilities.get(alt, [])
        if t.attribute != CONST_ATTRIBUTE
    ]
    shape = (len(observations), len(spec.alternatives))
    # One column per attribute; NaN where an alternative lacks it.
    columns = {
        name: np.array(
            [attrs.get(name, math.nan) for obs in observations for attrs in obs.attributes],
            dtype=float,
        ).reshape(shape)
        for name in dict.fromkeys(attribute for _, attribute in checks)
    }
    avail = np.array([obs.availability for obs in observations], dtype=bool)

    # The first bad value by observation, then alternative, then term.
    bad = [avail[:, j] & ~np.isfinite(columns[attribute][:, j]) for j, attribute in checks]
    if np.any(bad):
        i, c = np.argwhere(np.column_stack(bad))[0]
        j, attribute = checks[c]
        obs = observations[i]
        problem = "is not finite for alternative"
        if obs.attributes[j].get(attribute) is None:
            problem = "is missing for available alternative"
        raise SpecMismatchError(
            f"observation '{obs.obs_id}': attribute '{attribute}' {problem} "
            f"'{spec.alternatives[j]}'"
        )

    person_ids = dataset.persons()
    person_pos = {pid: i for i, pid in enumerate(person_ids)}
    chosen = np.array([obs.chosen for obs in observations], dtype=np.int64)
    person_index = np.array([person_pos[obs.person_id] for obs in observations], dtype=np.int64)
    return _compile(spec, columns, avail, chosen, person_index, person_ids)


def _compile(spec, columns, avail, chosen, person_index, person_ids):
    """The one rule from utility terms to design columns, term by term in
    specification order; ``columns`` maps attributes to (n_obs, n_alts) arrays
    and unavailable alternatives contribute zero."""
    free = spec.free_names()
    column = {name: i for i, name in enumerate(free)}
    fixed_value = {p.name: p.fixed_value for p in spec.parameters if p.fixed}
    X = np.zeros((*avail.shape, len(free)))
    offset = np.zeros(avail.shape)
    for j, alt in enumerate(spec.alternatives):
        for term in spec.utilities.get(alt, []):
            x = 1.0 if term.attribute == CONST_ATTRIBUTE else columns[term.attribute][:, j]
            x = np.where(avail[:, j], x, 0.0)
            if term.param in column:
                X[:, j, column[term.param]] += x
            else:
                offset[:, j] += fixed_value[term.param] * x
    return DesignArrays(
        X=X,
        offset=offset,
        avail=avail,
        chosen=chosen,
        person_index=person_index,
        person_ids=person_ids,
        free_names=free,
        start_values=spec.starts(),
    )


@dataclass(frozen=True)
class AttributeRule:
    """How one attribute is generated, per observation and alternative.

    ``dist`` is one of "normal" (mean, sd), "uniform" (low, high),
    "lognormal" (mean, sd of the underlying normal) or "constant" (value).
    ``alternatives`` restricts the attribute to a subset of alternatives;
    the rest do not carry it.
    """

    name: str
    dist: str = "normal"
    mean: float = 0.0
    sd: float = 1.0
    low: float = 0.0
    high: float = 1.0
    value: float = 0.0
    alternatives: tuple[str, ...] | None = None


@dataclass(frozen=True)
class GeneratorSpec:
    """Data-generating description for :func:`simulate_dataset`.

    ``heterogeneity`` maps free parameter names to the standard deviation of
    a person-level normal disturbance added to the true coefficient. The
    estimator stays a plain multinomial logit; this only shapes the data, for
    misspecification experiments.
    """

    attributes: tuple[AttributeRule, ...]
    heterogeneity: Mapping[str, float] = field(default_factory=dict)

    @staticmethod
    def from_dict(doc):
        # Attributes are a list, not a name-keyed object: rule order drives
        # the draw sequence and must survive a sorted-keys JSON round trip.
        entries = doc.get("attributes", ())
        if isinstance(entries, Mapping):
            raise ValueError("generator attributes must be a list of rule objects")
        rules = tuple(
            AttributeRule(
                name=str(entry["name"]),
                dist=entry.get("dist", "normal"),
                mean=float(entry.get("mean", 0.0)),
                sd=float(entry.get("sd", 1.0)),
                low=float(entry.get("low", 0.0)),
                high=float(entry.get("high", 1.0)),
                value=float(entry.get("value", 0.0)),
                alternatives=tuple(entry["alternatives"]) if "alternatives" in entry else None,
            )
            for entry in entries
        )
        return GeneratorSpec(
            attributes=rules,
            heterogeneity={k: float(v) for k, v in doc.get("heterogeneity", {}).items()},
        )

    def to_dict(self):
        attributes = []
        for rule in self.attributes:
            entry = {"name": rule.name, "dist": rule.dist}
            if rule.dist == "normal" or rule.dist == "lognormal":
                entry.update(mean=rule.mean, sd=rule.sd)
            elif rule.dist == "uniform":
                entry.update(low=rule.low, high=rule.high)
            elif rule.dist == "constant":
                entry.update(value=rule.value)
            if rule.alternatives is not None:
                entry["alternatives"] = list(rule.alternatives)
            attributes.append(entry)
        return {"attributes": attributes, "heterogeneity": dict(self.heterogeneity)}

    def check_against(self, spec):
        """Alternatives each attribute is drawn for; raises SpecMismatchError
        unless the rules draw every attribute ``spec`` uses, once per alternative."""
        for name in self.heterogeneity:
            if name not in spec.free_names():
                raise SpecMismatchError(
                    f"heterogeneity declared for unknown free parameter '{name}'"
                )
        carried = {}  # attribute -> alternatives it is drawn for
        for rule in self.attributes:
            if rule.dist not in ("normal", "uniform", "lognormal", "constant"):
                raise SpecMismatchError(f"unknown attribute distribution '{rule.dist}'")
            alts = set(spec.alternatives if rule.alternatives is None else rule.alternatives)
            for alt in rule.alternatives or ():
                if alt not in spec.alternatives:
                    raise SpecMismatchError(
                        f"attribute '{rule.name}' names unknown alternative '{alt}'"
                    )
            # Same attribute, disjoint alternative subsets: the draws merge.
            if carried.setdefault(rule.name, set()) & alts:
                raise SpecMismatchError(
                    f"attribute '{rule.name}' is drawn more than once for the same alternative"
                )
            carried[rule.name] |= alts
        for alt, terms in spec.utilities.items():
            for term in terms:
                if term.attribute != CONST_ATTRIBUTE and alt not in carried.get(term.attribute, ()):
                    raise SpecMismatchError(
                        f"alternative '{alt}' references attribute '{term.attribute}', "
                        "which the generator does not draw for it"
                    )
        return carried


def simulate_design(spec, true_params, generator, n_persons, obs_per_person, seed):
    """Simulate a compiled design from the model at ``true_params``.

    Parameters
    ----------
    spec : ModelSpec
    true_params : mapping or sequence
        True values for every free parameter, by name or in free order.
    generator : GeneratorSpec
        Attribute generation rules and optional person-level coefficient
        heterogeneity.
    n_persons, obs_per_person : int
    seed : int
        Same seed, same design, bit for bit.

    Returns
    -------
    DesignArrays
        All alternatives available; choices drawn from the exact model
        probabilities at the (person-specific) true coefficients. Equal to
        ``build_design(simulate_dataset(...), spec)`` with the same arguments.
    """
    return _simulate(spec, true_params, generator, n_persons, obs_per_person, seed)[0]


def simulate_dataset(spec, true_params, generator, n_persons, obs_per_person, seed):
    """The draws of :func:`simulate_design` as a :class:`Dataset`.

    Each alternative carries every attribute the generator draws for it.
    """
    design, values, carried = _simulate(
        spec, true_params, generator, n_persons, obs_per_person, seed
    )
    lists = {name: arr.tolist() for name, arr in values.items()}
    rows = zip(design.person_index.tolist(), design.chosen.tolist())
    observations = [
        Observation(
            person_id=design.person_ids[person],
            obs_id=f"{design.person_ids[person]}.{i % obs_per_person + 1}",
            chosen=chosen,
            availability=(True,) * design.n_alts,
            attributes=tuple(
                {name: lists[name][i][j] for name in lists if alt in carried[name]}
                for j, alt in enumerate(spec.alternatives)
            ),
        )
        for i, (person, chosen) in enumerate(rows)
    ]
    return Dataset(list(spec.alternatives), observations)


def _simulate(spec, true_params, generator, n_persons, obs_per_person, seed):
    # (design, attribute -> (n_obs, n_alts) draws, attribute -> alternatives drawn for)
    spec.validate()
    if n_persons < 1 or obs_per_person < 1:
        raise ValueError("n_persons and obs_per_person must be positive")
    free = spec.free_names()
    if isinstance(true_params, Mapping):
        missing = [name for name in free if name not in true_params]
        if missing:
            raise SpecMismatchError(f"true_params missing free parameters: {missing}")
        beta = np.array([float(true_params[name]) for name in free])
    else:
        beta = np.asarray(true_params, dtype=float)
        if beta.shape != (len(free),):
            raise SpecMismatchError(
                f"true_params must have length {len(free)}, got shape {beta.shape}"
            )
    carried = generator.check_against(spec)

    referenced = {
        t.attribute
        for alt in spec.alternatives
        for t in spec.utilities.get(alt, [])
        if not spec.parameter(t.param).fixed
    }
    for rule in generator.attributes:
        if rule.dist == "constant" and rule.alternatives is None and rule.name in referenced:
            warnings.warn(
                f"attribute '{rule.name}' is constant across alternatives and "
                "observations but multiplies a free parameter; the model may "
                "not be identified",
                IdentificationRiskWarning,
                stacklevel=3,
            )

    rng = np.random.default_rng(seed)
    n_obs = n_persons * obs_per_person
    j_count = len(spec.alternatives)

    # Draw attributes rule by rule in declaration order, then heterogeneity,
    # then the choice uniforms, so the stream layout is stable.
    values = {}
    for rule in generator.attributes:
        if rule.dist == "normal":
            arr = rng.normal(rule.mean, rule.sd, size=(n_obs, j_count))
        elif rule.dist == "uniform":
            arr = rng.uniform(rule.low, rule.high, size=(n_obs, j_count))
        elif rule.dist == "lognormal":
            arr = rng.lognormal(rule.mean, rule.sd, size=(n_obs, j_count))
        else:
            arr = np.full((n_obs, j_count), rule.value)
        if rule.alternatives is not None:
            arr = arr * np.isin(spec.alternatives, rule.alternatives)
        values[rule.name] = values[rule.name] + arr if rule.name in values else arr

    person_of_obs = np.repeat(np.arange(n_persons), obs_per_person)
    beta_person = np.tile(beta, (n_persons, 1))
    for name, sd in generator.heterogeneity.items():
        beta_person[:, free.index(name)] += rng.normal(0.0, float(sd), size=n_persons)

    avail = np.ones((n_obs, j_count), dtype=bool)
    person_ids = [f"p{person + 1:06d}" for person in range(n_persons)]
    design = _compile(spec, values, avail, np.zeros(n_obs, np.int64), person_of_obs, person_ids)
    v = design.offset + np.einsum("njk,nk->nj", design.X, beta_person[person_of_obs])
    v -= v.max(axis=1, keepdims=True)
    p = np.exp(v)
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    u = rng.random(n_obs)
    design.chosen[:] = np.minimum((cum < u[:, None]).sum(axis=1), j_count - 1)
    return design, values, carried
