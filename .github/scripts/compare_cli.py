"""Run every CLI exit path from two source trees and report what differs.

    python .github/scripts/compare_cli.py BASE_ROOT CHANGE_ROOT

Each root is a checkout of the repository; its ``src/`` is put on
PYTHONPATH of fresh ``python`` processes. Both trees run the same command
lines, from working directories at the same depth, on the same inputs, all
drawn with ``perfbench/inputs.py`` of CHANGE_ROOT (imported, never written):

- the fixed reference panel with its spec, a copy of the spec that adds
  a second time coefficient on the same attribute (a singular Hessian), and
  a copy that gives every alternative a free constant (identified only up
  to a utility shift, which the spec's validation warns of);
- a three-person panel, whose fit converges but whose BHHH matrix has rank
  3 for 4 parameters (a singular covariance);
- a 50-replication size/power ``montecarlo`` config;
- a 50-replication coverage ``montecarlo`` config whose generator draws
  from every attribute distribution, restricts rules to some alternatives,
  perturbs ``b_tt`` per person and runs a 10-draw bootstrap per
  replication, so that every draw path of the simulator runs.

The paths: ``estimate`` (with and without ``--starts 3``, and with
``--sided one`` and ``--sided two``, which on the reference spec's ``less``
and ``auto`` declarations take every branch of the sidedness rule),
``bootstrap``, exit 2 from a singular Hessian (the collinear spec and the
spec with a constant on every alternative) and from a singular covariance,
exit 3 from a fit that does not converge (``estimate``, with and without
``--starts 3``, and ``bootstrap``; one iteration at an unreachable
tolerance, set through the estimation module's constants) and from
``bootstrap --S 5``, ``montecarlo`` of each config, and ``report`` of the
first ``estimate``'s results.

Compared per path: exit code, stdout, stderr (each tree's root path
replaced by ``<root>``), the listing of the output directory and every file
in it, ``manifest.json`` with its ``timestamp`` removed. A CSV or JSON file
that differs but keeps its shape (the same header and row count, or the
same key paths) also gets, per column or key, the largest relative
difference of its numbers, and a count of the other cells that changed. The report goes to
``$GITHUB_STEP_SUMMARY`` when that is set, else to stdout. The exit status
is 0 whatever differs: the comparison is a report, not a gate.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# A fit that runs out of iterations: one step at a tolerance no fit meets.
STUCK = """
import sys
import choicestats.cli as cli
import choicestats.estimation as estimation
estimation.MAX_ITERATIONS, estimation.GRADIENT_TOLERANCE = 1, 1e-13
sys.exit(cli.main(sys.argv[1:]))
"""
CLI = ("-m", "choicestats.cli")
PANEL = ("--data", "../inputs/panel/data.csv", "--spec", "../inputs/panel/spec.json")
TABLE = ("--se", "--t", "--stars")

# name -> interpreter arguments, then the command line; each gets --out out/<name>.
PATHS = {
    "estimate": (CLI, ("estimate", *PANEL, *TABLE)),
    "estimate-starts-3": (CLI, ("estimate", *PANEL, "--starts", "3")),
    "estimate-sided-one": (CLI, ("estimate", *PANEL, "--sided", "one", *TABLE)),
    "estimate-sided-two": (CLI, ("estimate", *PANEL, "--sided", "two", *TABLE)),
    "bootstrap": (CLI, ("bootstrap", *PANEL, "--S", "50", "--seed", "7", *TABLE)),
    "singular-hessian": (
        CLI, ("estimate", "--data", "../inputs/panel/data.csv", "--spec", "../inputs/collinear_spec.json"),
    ),
    "singular-covariance": (
        CLI, ("estimate", "--data", "../inputs/three/data.csv", "--spec", "../inputs/three/spec.json"),
    ),
    "estimate-shift-unidentified": (
        CLI, ("estimate", "--data", "../inputs/panel/data.csv", "--spec", "../inputs/shift_spec.json"),
    ),
    "estimate-not-converged": (("-c", STUCK), ("estimate", *PANEL)),
    "estimate-starts-3-not-converged": (("-c", STUCK), ("estimate", *PANEL, "--starts", "3")),
    "bootstrap-not-converged": (("-c", STUCK), ("bootstrap", *PANEL, "--S", "10")),
    "bootstrap-too-few": (CLI, ("bootstrap", *PANEL, "--S", "5")),
    "montecarlo": (CLI, ("montecarlo", "--config", "../inputs/montecarlo.json", "--jobs", "2")),
    "montecarlo-coverage": (CLI, ("montecarlo", "--config", "../inputs/coverage.json", "--jobs", "2")),
    "report": (CLI, ("report", "--results", "out/estimate/results.json", *TABLE)),
}
SHOWN_DIFF_LINES = 40


def write_inputs(directory, inputs):
    inputs.write_choice_inputs(inputs.reference_panel(), directory / "panel")
    inputs.write_choice_inputs(
        inputs.generate(3, n_persons=3, obs_per_person=200, with_wait=False), directory / "three"
    )
    spec = inputs.spec_doc(with_wait=False)
    spec["parameters"].append({**spec["parameters"][-1], "name": "b_tt_copy"})
    for terms in spec["utilities"].values():
        terms.append({"param": "b_tt_copy", "attribute": "tt"})
    (directory / "collinear_spec.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    # The reference spec's constants are on bus and rail; one on car leaves a utility shift free.
    shift = inputs.spec_doc(with_wait=False)
    shift["parameters"].append({**shift["parameters"][0], "name": "asc_car"})
    shift["utilities"]["car"].append({"param": "asc_car", "attribute": "_const"})
    (directory / "shift_spec.json").write_text(json.dumps(shift, indent=2) + "\n", encoding="utf-8")
    config = inputs.montecarlo_config(1, replications=50)
    (directory / "montecarlo.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    coverage = {**inputs.montecarlo_config(1, n_persons=200, replications=50), "experiment": "coverage"}
    del coverage["effect_sizes"]
    coverage["bootstrap_s"] = 10
    coverage["generator"] = {
        "attributes": [
            {"name": "tt", "dist": "normal", "mean": 30.0, "sd": 8.0},
            {"name": "cost", "dist": "uniform", "low": 1.0, "high": 12.0, "alternatives": ["car", "bus"]},
            {"name": "cost", "dist": "lognormal", "mean": 1.5, "sd": 0.4, "alternatives": ["rail"]},
            {"name": "wait", "dist": "constant", "value": 5.0, "alternatives": ["bus", "rail"]},
        ],
        "heterogeneity": {"b_tt": 0.01},
    }
    (directory / "coverage.json").write_text(json.dumps(coverage, indent=2) + "\n", encoding="utf-8")


def run_paths(root, cwd):
    """{path name: (exit code, stdout, stderr, {file name: content})} of one tree."""
    cwd.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    env.pop("CHOICESTATS_OUTDIR", None)
    outcomes = {}
    for name, (interpreter, argv) in PATHS.items():
        out = Path("out") / name
        done = subprocess.run(
            [sys.executable, *interpreter, *argv, "--out", str(out)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
        )
        files = {}
        for path in sorted((cwd / out).iterdir()) if (cwd / out).is_dir() else []:
            content = path.read_text(encoding="utf-8")
            if path.name == "manifest.json":
                manifest = json.loads(content)
                manifest.pop("timestamp", None)
                content = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            files[path.name] = content
        stderr = done.stderr.replace(str(root.resolve()), "<root>")
        outcomes[name] = (done.returncode, done.stdout, stderr, files)
    return outcomes


def _cells(name, text):
    """{(column or key, position): cell} of a CSV or JSON file, or None for
    any other file. A JSON key drops its list indices: ``rates[].rate``."""
    if name.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
        return {(column, i): cell for i, row in enumerate(rows) for column, cell in zip(header, row)}
    if not name.endswith(".json"):
        return None
    cells = {}

    def walk(value, key, position):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k, position)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{key}[]", (*position, i))
        else:
            cells[key, position] = value

    walk(json.loads(text), "", ())
    return cells


def _number(cell):
    # A CSV cell or JSON leaf as a float; None for a boolean, text or null.
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def numeric_differences(name, old, new):
    """Markdown lines with the largest relative difference per column or key
    of the numbers that changed, and the count of other changed cells; no
    lines when the file is not CSV or JSON or its shape changed."""
    cells_old, cells_new = _cells(name, old), _cells(name, new)
    if cells_old is None or cells_old.keys() != cells_new.keys():
        return []
    worst, other = {}, 0
    for key, a in cells_old.items():
        b = cells_new[key]
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            other += 1
            continue
        scale = max(abs(x), abs(y))
        gap = abs(x - y) / scale if scale else 0.0
        worst[key[0]] = max(worst.get(key[0], 0.0), gap)
    by_column = ", ".join(f"`{column}` {gap:.2g}" for column, gap in sorted(worst.items(), key=lambda kv: -kv[1]))
    return [
        f"- {name}: same shape; largest relative difference by column or key: {by_column or 'none'}; "
        f"{other} non-numeric cell(s) changed"
    ]


def differences(base, change):
    """Markdown lines naming every way ``change`` differs from ``base``."""
    lines = []
    code_b, out_b, err_b, files_b = base
    code_c, out_c, err_c, files_c = change
    if code_b != code_c:
        lines.append(f"- exit code {code_b} -> {code_c}")
    if sorted(files_b) != sorted(files_c):
        lines.append(f"- files {sorted(files_b)} -> {sorted(files_c)}")
    texts = [("stdout", out_b, out_c), ("stderr", err_b, err_c)]
    texts += [(name, files_b[name], files_c[name]) for name in sorted(set(files_b) & set(files_c))]
    for label, old, new in texts:
        if old != new:
            lines.extend(numeric_differences(label, old, new))
            diff = list(difflib.unified_diff(
                old.splitlines(), new.splitlines(), "base", "change", lineterm=""
            ))
            lines.append(f"- {label} differs:")
            lines.append("```diff")
            lines.extend(diff[:SHOWN_DIFF_LINES])
            if len(diff) > SHOWN_DIFF_LINES:
                lines.append(f"... {len(diff) - SHOWN_DIFF_LINES} more diff lines")
            lines.append("```")
    return lines


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base_root, change_root = (Path(a).resolve() for a in argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(change_root / "perfbench"))
    import inputs

    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        work = Path(tmp)
        write_inputs(work / "inputs", inputs)
        base = run_paths(base_root, work / "base")
        change = run_paths(change_root, work / "change")

    found = {name: differences(base[name], change[name]) for name in PATHS}
    report = [
        "## CLI outputs against the base commit",
        "",
        f"{sum(map(bool, found.values()))} of {len(PATHS)} paths differ (manifest timestamps ignored).",
        "",
        "| path | exit, base -> change | outputs |",
        "| --- | --- | --- |",
    ]
    for name, lines in found.items():
        outcome = "differ" if lines else "identical"
        report.append(f"| {name} | {base[name][0]} -> {change[name][0]} | {outcome} |")
    for name, lines in found.items():
        if lines:
            report += ["", f"### {name}", "", *lines]
    text = "\n".join(report) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
