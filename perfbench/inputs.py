"""Seeded inputs for the benchmark workloads, generated with numpy alone.

The CSV inputs of ``estimate_large`` and ``bootstrap_panel`` are drawn here
rather than with ``choicestats.simulate_dataset``, so that a change to the
program's simulator cannot shift the data those two workloads time. The same
seed gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ALTERNATIVES = ("car", "bus", "rail")

# Five-parameter model: two constants, generic time and cost, and a waiting
# time that only bus and rail carry.
FIVE_PARAM_TRUE = {"asc_bus": 0.5, "asc_rail": 0.2, "b_tt": -0.05, "b_cost": -0.15, "b_wait": -0.08}
FIVE_PARAM_START = {"asc_bus": 0.0, "asc_rail": 0.0, "b_tt": -0.05, "b_cost": -0.1, "b_wait": -0.05}

# Three-mode model: the five-parameter model without the waiting time.
THREE_MODE_TRUE = {"asc_bus": 0.5, "asc_rail": 0.2, "b_tt": -0.05, "b_cost": -0.15}
THREE_MODE_START = {"asc_bus": 0.0, "asc_rail": 0.0, "b_tt": -0.05, "b_cost": -0.1}

# attribute -> (low, high, alternatives carrying it)
ATTRIBUTE_RULES = {
    "tt": (5.0, 60.0, ALTERNATIVES),
    "cost": (1.0, 12.0, ALTERNATIVES),
    "wait": (2.0, 15.0, ("bus", "rail")),
}


def _terms(with_wait):
    terms = {}
    for alt in ALTERNATIVES:
        alt_terms = [] if alt == "car" else [(f"asc_{alt}", "_const")]
        alt_terms += [("b_tt", "tt"), ("b_cost", "cost")]
        if with_wait and alt != "car":
            alt_terms.append(("b_wait", "wait"))
        terms[alt] = alt_terms
    return terms


def spec_doc(with_wait):
    """Model file in the JSON layout ``choicestats`` reads."""
    start = FIVE_PARAM_START if with_wait else THREE_MODE_START
    return {
        "alternatives": list(ALTERNATIVES),
        "parameters": [
            {
                "name": name,
                "start": value,
                "fixed": False,
                "fixed_value": 0.0,
                "h0_value": 0.0,
                "alternative": "auto" if name.startswith("asc") else "less",
            }
            for name, value in start.items()
        ],
        "utilities": {
            alt: [{"param": p, "attribute": a} for p, a in terms]
            for alt, terms in _terms(with_wait).items()
        },
    }


@dataclass
class ChoiceData:
    """A generated long-format data set held as arrays.

    ``attributes`` maps a name to an (n_obs, n_alts) array, NaN where an
    alternative does not carry the attribute.
    """

    spec: dict
    attributes: dict
    chosen: np.ndarray
    person: np.ndarray
    obs_per_person: int

    @property
    def n_obs(self):
        return self.chosen.shape[0]

    @property
    def free_names(self):
        return [p["name"] for p in self.spec["parameters"]]

    def design(self):
        """(X, chosen, person) for the oracle: X has shape (n_obs, n_alts, k)."""
        names = self.free_names
        X = np.zeros((self.n_obs, len(ALTERNATIVES), len(names)))
        for j, alt in enumerate(ALTERNATIVES):
            for term in self.spec["utilities"][alt]:
                col = names.index(term["param"])
                if term["attribute"] == "_const":
                    X[:, j, col] += 1.0
                else:
                    X[:, j, col] += self.attributes[term["attribute"]][:, j]
        return X, self.chosen, self.person

    def csv_text(self):
        names = sorted(self.attributes)
        columns = [self.attributes[name].tolist() for name in names]
        chosen = self.chosen.tolist()
        lines = [",".join(["person_id", "obs_id", "alt_id", "avail", "chosen", *names])]
        for i in range(self.n_obs):
            pid = f"p{int(self.person[i]) + 1:06d}"
            oid = f"{pid}.{i % self.obs_per_person + 1}"
            for j, alt in enumerate(ALTERNATIVES):
                cells = ["" if v[i][j] != v[i][j] else repr(v[i][j]) for v in columns]
                lines.append(",".join([pid, oid, alt, "1", "1" if chosen[i] == j else "0", *cells]))
        return "\n".join(lines) + "\n"


def generate(seed, n_persons, obs_per_person, with_wait, heterogeneity_sd=0.0):
    """Draw attributes and logit choices; ``heterogeneity_sd`` perturbs b_tt per person."""
    rng = np.random.default_rng(seed)
    n_obs = n_persons * obs_per_person
    truth = FIVE_PARAM_TRUE if with_wait else THREE_MODE_TRUE
    names = ("tt", "cost", "wait") if with_wait else ("tt", "cost")
    attributes = {}
    for name in names:
        low, high, carriers = ATTRIBUTE_RULES[name]
        values = rng.uniform(low, high, size=(n_obs, len(ALTERNATIVES)))
        for j, alt in enumerate(ALTERNATIVES):
            if alt not in carriers:
                values[:, j] = np.nan
        attributes[name] = values

    person = np.repeat(np.arange(n_persons), obs_per_person)
    b_tt = truth["b_tt"] + heterogeneity_sd * rng.standard_normal(n_persons)
    utility = np.zeros((n_obs, len(ALTERNATIVES)))
    for j, alt in enumerate(ALTERNATIVES):
        for param, attribute in _terms(with_wait)[alt]:
            if attribute == "_const":
                utility[:, j] += truth[param]
            elif param == "b_tt":
                utility[:, j] += b_tt[person] * attributes[attribute][:, j]
            else:
                utility[:, j] += truth[param] * attributes[attribute][:, j]
    chosen = np.argmax(utility + rng.gumbel(size=utility.shape), axis=1)
    return ChoiceData(spec_doc(with_wait), attributes, chosen, person, obs_per_person)


#: Fixed panel the bootstrap_panel workload re-runs in every run and compares
#: with the stored ``reference/bootstrap_fixed.json``; it does not vary with
#: the seed, so a stored answer can exist for it.
REFERENCE_PANEL = {"seed": 20251017, "n_persons": 100, "obs_per_person": 4, "heterogeneity_sd": 0.02}
REFERENCE_BOOTSTRAP_ARGS = ("--S", "50", "--jobs", "1", "--seed", "7")


#: Panels drawn for one bootstrap_panel run; its ops cycle over them. How
#: often Newton's step halving runs differs from panel to panel (2,500 to
#: 6,100 log-likelihood calls per 400 replicates were seen), so with few
#: panels a run the op time would depend on which seed the run was given.
BOOTSTRAP_PANELS = 8


def bootstrap_panels(seed):
    """The bootstrap_panel inputs: 500 persons x 4 observations each, b_tt heterogeneity sd 0.02."""
    return [
        generate([seed, i], n_persons=500, obs_per_person=4, with_wait=False, heterogeneity_sd=0.02)
        for i in range(BOOTSTRAP_PANELS)
    ]


def reference_panel():
    return generate(with_wait=False, **REFERENCE_PANEL)


def montecarlo_config(seed, n_persons=1000, replications=100, effect_sizes=(0.0, -0.05)):
    """Size/power experiment of the three-mode model, target ``b_cost``."""
    return {
        "experiment": "size_power",
        "spec": spec_doc(with_wait=False),
        "generator": {
            "attributes": [
                {"name": name, "dist": "uniform", "low": low, "high": high}
                for name, (low, high, _) in ATTRIBUTE_RULES.items()
                if name != "wait"
            ],
            "heterogeneity": {},
        },
        "true_params": dict(THREE_MODE_TRUE),
        "n_persons": n_persons,
        "obs_per_person": 1,
        "replications": replications,
        "alpha": 0.05,
        "target_parameter": "b_cost",
        "effect_sizes": list(effect_sizes),
        "ci_level": 0.95,
        "seed": int(seed),
        "bootstrap_s": 0,
    }


def write_choice_inputs(data, directory):
    """Write data.csv and spec.json; return their sizes."""
    directory.mkdir(parents=True, exist_ok=True)
    csv_bytes = data.csv_text().encode("utf-8")
    (directory / "data.csv").write_bytes(csv_bytes)
    (directory / "spec.json").write_text(json.dumps(data.spec, indent=2) + "\n", encoding="utf-8")
    return {"csv_rows": data.n_obs * len(ALTERNATIVES), "csv_bytes": len(csv_bytes)}


def write_config(doc, directory):
    directory.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=2) + "\n"
    (directory / "config.json").write_text(text, encoding="utf-8")
    return {"config_bytes": len(text.encode("utf-8"))}
