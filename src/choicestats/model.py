"""Multinomial logit model core.

Data containers (columnar datasets, model specifications), choice
probabilities with overflow-safe evaluation, the sample log-likelihood with
its analytic score and Hessian, and a seeded simulator for experiments.

Utility of alternative j for observation n is a linear index
``V_nj = sum_m beta_m * x_njm`` over the terms declared in the specification.
Probabilities, the likelihood, and its derivatives are evaluated on a
compiled design (:class:`DesignArrays`) so repeated evaluation during
optimisation stays vectorised.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import compress
from typing import Mapping

import numpy as np

from .errors import (
    IdentificationRiskWarning,
    SpecMismatchError,
)
from .util import first_failure, reject_unknown_keys

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


@dataclass(eq=False)
class Dataset:
    """Choice data as columns over a fixed alternative order.

    Lists and ``(n_obs,)`` arrays hold one entry per observation, and
    ``(n_obs, n_alts)`` arrays one column per alternative, in order.

    Attributes
    ----------
    alternatives, person_ids, obs_ids : list of str
    chosen : ndarray of int, shape (n_obs,)
        Position of the chosen alternative.
    avail : ndarray of bool, shape (n_obs, n_alts)
    attributes : dict of str to ndarray, shape (n_obs, n_alts)
        Attribute values, NaN where an alternative does not carry one.
    carried : dict of str to ndarray of bool, shape (n_obs, n_alts)
        The cells that carry each attribute, so that build_design can tell
        a missing value from a non-finite one read from the data.
    """

    alternatives: list[str]
    person_ids: list[str]
    obs_ids: list[str]
    chosen: np.ndarray
    avail: np.ndarray
    attributes: dict[str, np.ndarray]
    carried: dict[str, np.ndarray]

    def persons(self):
        """Person identifiers in order of first appearance."""
        return list(dict.fromkeys(self.person_ids))

    @property
    def n_obs(self):
        return len(self.obs_ids)

    @property
    def n_persons(self):
        return len(self.persons())

    def validate(self):
        n, j = self.n_obs, len(self.alternatives)
        if not n:
            raise SpecMismatchError("dataset contains no observations")
        names = sorted(self.attributes.keys() | self.carried.keys())
        columns = [("person_ids", self.person_ids, (n,)), ("chosen", self.chosen, (n,))]
        columns += [("avail", self.avail, (n, j))] + [
            (f"{kind} '{name}'", getattr(self, kind).get(name), (n, j))
            for kind in ("attributes", "carried")
            for name in names
        ]
        for column, values, expected in columns:
            if np.shape(values) != expected:
                raise SpecMismatchError(
                    f"column {column} has shape {np.shape(values)}, not {expected} "
                    f"for {n} observations of {j} alternatives"
                )
        # One row per observation, one column per check in the order below;
        # the first failing check of the first failing observation is named.
        # Ids as Python strings: a numpy string array drops trailing NULs.
        ids = np.array(self.obs_ids, dtype=object)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        known = (self.chosen >= 0) & (self.chosen < j)
        chosen_avail = self.avail[np.arange(n), np.where(known, self.chosen, 0)]
        failure = first_failure(
            [first[inverse] != np.arange(n), ~self.avail.any(axis=1), ~known, ~chosen_avail]
        )
        if failure:
            i, check = failure
            obs = self.obs_ids[i]
            raise SpecMismatchError((
                f"duplicate observation id '{obs}'",
                f"observation '{obs}' has no available alternative",
                f"observation '{obs}' chose an unknown alternative",
                f"observation '{obs}' chose unavailable alternative "
                f"'{self.alternatives[self.chosen[i]] if known[i] else ''}'",
            )[check])

    def reordered(self, alternatives):
        """The same data with its alternative columns permuted to a new order."""
        if set(alternatives) != set(self.alternatives):
            raise SpecMismatchError(
                f"alternative sets differ: dataset {self.alternatives} vs {list(alternatives)}"
            )
        perm = [self.alternatives.index(alt) for alt in alternatives]
        return replace(
            self,
            alternatives=list(alternatives),
            chosen=np.argsort(perm)[self.chosen],
            avail=self.avail[:, perm],
            attributes={name: values[:, perm] for name, values in self.attributes.items()},
            carried={name: mask[:, perm] for name, mask in self.carried.items()},
        )


@dataclass
class DesignArrays:
    """Dataset and specification compiled to dense arrays.

    The kernel stores the design parameter-major: one contiguous
    ``(k, n_alts, n_obs)`` array for ``X`` and ``(n_alts, n_obs)`` arrays for
    ``offset`` and ``avail``, so utilities are one matrix-vector product and
    the softmax and its weighted sums run over contiguous rows. The public
    attributes below are transposed views of that storage, not copies. Each
    design also keeps every observation's chosen row of ``X`` for the
    gradient and the score rows, which :meth:`person_terms` sums per person.

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
    person_weights : ndarray, shape (n_persons,)
        How many times each person counts in the likelihood, its derivatives
        and the BHHH matrix: ones for a compiled or simulated dataset, the
        draw counts for a bootstrap replicate (see :meth:`weighted`).
    """

    X: np.ndarray
    offset: np.ndarray
    avail: np.ndarray
    chosen: np.ndarray
    person_index: np.ndarray
    person_ids: list[str]
    free_names: list[str]
    start_values: np.ndarray
    person_weights: np.ndarray

    def __post_init__(self):
        # No copy when the arguments are already views of parameter-major
        # arrays, as every design built in this module passes.
        self._Xt = np.ascontiguousarray(self.X.transpose(2, 1, 0))
        self._offset_t = np.ascontiguousarray(self.offset.T)
        self._avail_t = np.ascontiguousarray(self.avail.T)
        self.X = self._Xt.transpose(2, 1, 0)
        self.offset = self._offset_t.T
        self.avail = self._avail_t.T
        # The offset where an alternative is available, -inf where it is not.
        self._bias_t = np.where(self._avail_t, self._offset_t, -np.inf)
        # Position of each chosen entry in the flattened (n_alts, n_obs) rows.
        self._chosen_flat = self.chosen * self.n_obs + np.arange(self.n_obs)
        self._x_chosen = np.take(self._Xt.reshape(self.k, -1), self._chosen_flat, axis=1)
        self.person_weights = np.asarray(self.person_weights, dtype=float)
        self._obs_weights = self.person_weights[self.person_index]

    @property
    def n_obs(self):
        return self._Xt.shape[2]

    @property
    def n_alts(self):
        return self._Xt.shape[1]

    @property
    def k(self):
        return self._Xt.shape[0]

    @property
    def n_persons(self):
        return len(self.person_ids)

    def probabilities(self, params):
        """Choice probabilities with max-utility subtraction, (n_obs, n_alts).

        Unavailable alternatives come out exactly zero; available ones sum to
        one per observation up to float rounding. The result is a transposed
        view of the kernel's (n_alts, n_obs) array.
        """
        v = (params @ self._Xt.reshape(self.k, -1)).reshape(self._offset_t.shape)
        v += self._bias_t
        v -= v.max(axis=0)
        np.exp(v, out=v)
        v /= v.sum(axis=0)
        return v.T

    def chosen_log_likelihood(self, p):
        """(ll, floored) from an array :meth:`probabilities` returned; floored
        says whether a chosen probability was clamped at PROBABILITY_FLOOR."""
        p_chosen = np.take(p.T, self._chosen_flat)
        floored = bool(np.any(p_chosen < PROBABILITY_FLOOR))
        if floored:
            p_chosen = np.maximum(p_chosen, PROBABILITY_FLOOR)
        return float(np.sum(self._obs_weights * np.log(p_chosen))), floored

    def _xbar(self, p_t):
        """(k, n_obs) probability-weighted mean of each observation's rows,
        without a (k, n_alts, n_obs) product array."""
        return np.einsum("kjn,jn->kn", self._Xt, p_t)

    def log_likelihood(self, params):
        return self.chosen_log_likelihood(self.probabilities(params))[0]

    def null_log_likelihood(self):
        """Log-likelihood of equal probabilities over available alternatives."""
        return float(-np.sum(self._obs_weights * np.log(self._avail_t.sum(axis=0))))

    def derivatives(self, p):
        """(gradient, Hessian) from an array :meth:`probabilities` returned,
        which this overwrites.

        The Hessian is -sum_n w_n sum_j p_nj (x_nj - xbar_n)(x_nj - xbar_n)',
        one matrix product over the centred design; the gradient sums the
        weighted chosen rows less xbar_n, w_n being the weight of observation
        n's person; the chosen rows are stored with the design. Centring before
        either sum keeps them accurate near the optimum, where the uncentred
        forms cancel. Weights multiply before each sum, so unit weights leave
        every bit as without them.
        """
        p_t = p.T
        xbar = self._xbar(p_t)
        centred = (self._Xt - xbar[:, None, :]).reshape(self.k, -1)
        chosen = (self._x_chosen - xbar) * self._obs_weights
        p_t *= self._obs_weights
        h = -((centred * p_t.reshape(-1)) @ centred.T)
        # The product is not bitwise symmetric; the matrix is.
        return chosen.sum(axis=1), (h + h.T) / 2.0

    def evaluate(self, params):
        """(ll, gradient, Hessian, floored) from one softmax pass."""
        p = self.probabilities(params)
        ll, floored = self.chosen_log_likelihood(p)
        return (ll, *self.derivatives(p), floored)

    def person_terms(self, p, information=False):
        """Per-person unweighted score rows, sums of x_chosen - xbar_n, from an
        array :meth:`probabilities` returned; with ``information``, then the k*k
        entries of sum_n sum_j p_nj c_nj c_nj', c_nj = x_nj - xbar_n, by row."""
        p_t = p.T
        xbar = self._xbar(p_t)
        rows = self._x_chosen - xbar
        if information:
            centred = self._Xt - xbar[:, None, :]
            outer = np.einsum("jn,ajn,bjn->abn", p_t, centred, centred)
            rows = np.vstack([rows, outer.reshape(self.k * self.k, -1)])
        return np.stack(
            [np.bincount(self.person_index, weights=r, minlength=self.n_persons) for r in rows],
            axis=1,
        )

    def score(self, params, grouping="person"):
        """Score rows x_chosen - sum_j p_j x_j per observation, or per person by
        :meth:`person_terms`; unweighted, a person of weight m giving one row."""
        p = self.probabilities(params)
        if grouping == "person":
            return self.person_terms(p)
        if grouping != "observation":
            raise ValueError(f"grouping must be 'person' or 'observation', got '{grouping}'")
        return (self._x_chosen - self._xbar(p.T)).T

    def bhhh(self, params):
        """sum_i w_i s_i s_i' over persons i with score s_i and weight w_i."""
        # Scaling by sqrt(w) keeps the product of one array with itself, so
        # unit weights give the same bits as the unweighted product.
        rows = self.score(params, grouping="person") * np.sqrt(self.person_weights)[:, None]
        return rows.T @ rows

    def weighted(self, person_weights):
        """Design with person i's weight multiplied by ``person_weights[i]``.

        Persons left with weight zero are dropped; the rest keep their rows
        once, in observation order. A person-level bootstrap replicate is
        the design weighted by how often each person was drawn, which gives
        the likelihood of the resample without copying any person's rows.
        """
        weights = self.person_weights * person_weights
        keep = weights > 0
        rows = np.flatnonzero(keep[self.person_index])
        return DesignArrays(
            X=np.take(self._Xt, rows, axis=2).transpose(2, 1, 0),
            offset=np.take(self._offset_t, rows, axis=1).T,
            avail=np.take(self._avail_t, rows, axis=1).T,
            chosen=self.chosen[rows],
            person_index=(np.cumsum(keep) - 1)[self.person_index[rows]],
            person_ids=list(compress(self.person_ids, keep)),
            free_names=list(self.free_names),
            start_values=self.start_values.copy(),
            person_weights=weights[keep],
        )

    def fix_column(self, index, value):
        """Design with free parameter ``index`` fixed at ``value``.

        Equivalent to recompiling against spec.with_fixed(name, value): the
        column moves into the offset.
        """
        keep = [c for c in range(self.k) if c != index]
        return DesignArrays(
            X=self._Xt[keep].transpose(2, 1, 0),
            offset=(self._offset_t + float(value) * self._Xt[index]).T,
            avail=self.avail,
            chosen=self.chosen,
            person_index=self.person_index,
            person_ids=list(self.person_ids),
            free_names=[self.free_names[c] for c in keep],
            start_values=self.start_values[keep],
            person_weights=self.person_weights,
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

    checks = [
        (j, t.attribute)
        for j, alt in enumerate(spec.alternatives)
        for t in spec.utilities.get(alt, [])
        if t.attribute != CONST_ATTRIBUTE
    ]
    avail = dataset.avail
    absent = np.full(avail.shape, np.nan)
    columns = {
        name: dataset.attributes.get(name, absent)
        for name in dict.fromkeys(attribute for _, attribute in checks)
    }

    # The first bad value by observation, then alternative, then term.
    failure = first_failure([avail[:, j] & ~np.isfinite(columns[a][:, j]) for j, a in checks])
    if failure:
        i, c = failure
        j, attribute = checks[c]
        problem = "is not finite for alternative"
        if attribute not in dataset.carried or not dataset.carried[attribute][i, j]:
            problem = "is missing for available alternative"
        raise SpecMismatchError(
            f"observation '{dataset.obs_ids[i]}': attribute '{attribute}' {problem} "
            f"'{spec.alternatives[j]}'"
        )

    person_ids = dataset.persons()
    person_pos = {pid: i for i, pid in enumerate(person_ids)}
    chosen = np.array(dataset.chosen, dtype=np.int64)
    person_index = np.array([person_pos[pid] for pid in dataset.person_ids], dtype=np.int64)
    X, offset = _compile(spec, columns, avail)
    ones = np.ones(len(person_ids))
    return DesignArrays(
        X, offset, avail, chosen, person_index, person_ids, spec.free_names(), spec.starts(), ones
    )


def _compile(spec, columns, avail):
    """(X, offset) by the one rule from utility terms to design columns, term
    by term in specification order; ``columns`` maps attributes to (n_obs,
    n_alts) arrays and unavailable alternatives contribute zero. Both come
    back as views of the parameter-major arrays a DesignArrays stores."""
    free = spec.free_names()
    column = {name: i for i, name in enumerate(free)}
    fixed_value = {p.name: p.fixed_value for p in spec.parameters if p.fixed}
    X = np.zeros((len(free), *avail.T.shape))
    offset = np.zeros(avail.T.shape)
    for j, alt in enumerate(spec.alternatives):
        for term in spec.utilities.get(alt, []):
            x = 1.0 if term.attribute == CONST_ATTRIBUTE else columns[term.attribute][:, j]
            x = np.where(avail[:, j], x, 0.0)
            if term.param in column:
                X[column[term.param], j] += x
            else:
                offset[j] += fixed_value[term.param] * x
    return X.transpose(2, 1, 0), offset.T


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


#: Keys an attribute rule may carry in a generator document.
_RULE_KEYS = ("name", "dist", "mean", "sd", "low", "high", "value", "alternatives")


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
        """Inverse of :meth:`to_dict`; a key it never writes raises ValueError."""
        reject_unknown_keys(doc, ("attributes", "heterogeneity"), "generator")
        # Attributes are a list, not a name-keyed object: rule order drives
        # the draw sequence and must survive a sorted-keys JSON round trip.
        entries = doc.get("attributes", ())
        if isinstance(entries, Mapping):
            raise ValueError("generator attributes must be a list of rule objects")
        for entry in entries:
            context = f"generator attribute rule '{entry.get('name')}'"
            reject_unknown_keys(entry, _RULE_KEYS, context)
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
    masks = {
        name: np.tile([alt in carried[name] for alt in spec.alternatives], (design.n_obs, 1))
        for name in values
    }
    return Dataset(
        list(spec.alternatives),
        [pid for pid in design.person_ids for _ in range(obs_per_person)],
        [f"{pid}.{t}" for pid in design.person_ids for t in range(1, obs_per_person + 1)],
        design.chosen.copy(),
        np.ones((design.n_obs, design.n_alts), dtype=bool),
        {name: np.where(masks[name], draws, np.nan) for name, draws in values.items()},
        masks,
    )


@lru_cache(maxsize=8)
def _person_ids(n_persons):
    return tuple(f"p{person + 1:06d}" for person in range(n_persons))


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
    person_ids = list(_person_ids(n_persons))
    X, offset = _compile(spec, values, avail)
    # Alternative-major (n_alts, n_obs) rows, as in the kernel, each
    # observation at its person's coefficients.
    beta_obs = np.repeat(beta_person.T, obs_per_person, axis=1)
    v = np.zeros((j_count, n_obs))
    for x, beta in zip(X.transpose(2, 1, 0), beta_obs):
        v += x * beta
    v += offset.T
    v -= v.max(axis=0)
    np.exp(v, out=v)
    v /= v.sum(axis=0)
    cum = np.cumsum(v, axis=0)
    u = rng.random(n_obs)
    chosen = np.minimum((cum < u).sum(axis=0), j_count - 1)
    design = DesignArrays(
        X, offset, avail, chosen, person_of_obs, person_ids, free, spec.starts(), np.ones(n_persons)
    )
    return design, values, carried
