"""Run every CLI exit path from two source trees and report what differs.

    python .github/scripts/compare_cli.py BASE_ROOT CHANGE_ROOT

Each root is a checkout of the repository; its ``src/`` is put on
PYTHONPATH of fresh ``python`` processes. Both trees run the same command
lines, from working directories at the same depth, on the same inputs, all
drawn with ``perfbench/inputs.py`` of CHANGE_ROOT (imported, never written):

- the fixed reference panel with its spec, and a copy of the spec that adds
  a second time coefficient on the same attribute (a singular Hessian);
- a three-person panel, whose fit converges but whose BHHH matrix has rank
  3 for 4 parameters (a singular covariance);
- a 50-replication size/power ``montecarlo`` config.

The paths: ``estimate`` (with and without ``--starts 3``), ``bootstrap``,
exit 2 from a singular Hessian and from a singular covariance, exit 3 from
a fit that does not converge (``estimate`` and ``bootstrap``; one iteration
at an unreachable tolerance) and from ``bootstrap --S 5``, ``montecarlo``,
and ``report`` of the first ``estimate``'s results.

Compared per path: exit code, stdout, stderr (each tree's root path
replaced by ``<root>``), the listing of the output directory and every file
in it, ``manifest.json`` with its ``timestamp`` removed. The report goes to
``$GITHUB_STEP_SUMMARY`` when that is set, else to stdout. The exit status
is 0 whatever differs: the comparison is a report, not a gate.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# A fit that runs out of iterations: one step at a tolerance no fit meets.
STUCK = """
import functools, sys
import choicestats.cli as cli
cli.EstimationOptions = functools.partial(cli.EstimationOptions, max_iterations=1, gradient_tolerance=1e-13)
sys.exit(cli.main(sys.argv[1:]))
"""
CLI = ("-m", "choicestats.cli")
PANEL = ("--data", "../inputs/panel/data.csv", "--spec", "../inputs/panel/spec.json")
TABLE = ("--se", "--t", "--stars")

# name -> interpreter arguments, then the command line; each gets --out out/<name>.
PATHS = {
    "estimate": (CLI, ("estimate", *PANEL, *TABLE)),
    "estimate-starts-3": (CLI, ("estimate", *PANEL, "--starts", "3")),
    "bootstrap": (CLI, ("bootstrap", *PANEL, "--S", "50", "--seed", "7", *TABLE)),
    "singular-hessian": (
        CLI, ("estimate", "--data", "../inputs/panel/data.csv", "--spec", "../inputs/collinear_spec.json"),
    ),
    "singular-covariance": (
        CLI, ("estimate", "--data", "../inputs/three/data.csv", "--spec", "../inputs/three/spec.json"),
    ),
    "estimate-not-converged": (("-c", STUCK), ("estimate", *PANEL)),
    "bootstrap-not-converged": (("-c", STUCK), ("bootstrap", *PANEL, "--S", "10")),
    "bootstrap-too-few": (CLI, ("bootstrap", *PANEL, "--S", "5")),
    "montecarlo": (CLI, ("montecarlo", "--config", "../inputs/montecarlo.json", "--jobs", "2")),
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
    config = inputs.montecarlo_config(1, replications=50)
    (directory / "montecarlo.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


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
