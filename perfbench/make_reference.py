"""Write reference/bootstrap_fixed.json from the current program.

    python3 perfbench/make_reference.py

Runs ``choicestats bootstrap`` on the fixed reference panel (inputs.py) and
stores the estimates, bootstrap SEs and interval bounds that every
``bootstrap_panel`` run compares against. Regenerate only on purpose: the
stored file is what catches a change in the bootstrap's answer.
"""

from __future__ import annotations

import json
import sys

import inputs
import run


def main():
    work = run.WORK / "make_reference"
    inputs.write_choice_inputs(inputs.reference_panel(), work)
    argv = [
        sys.executable, "-m", "choicestats.cli", "bootstrap",
        "--data", str(work / "data.csv"), "--spec", str(work / "spec.json"),
        *inputs.REFERENCE_BOOTSTRAP_ARGS, "--out", str(work / "out"),
    ]
    run.run_child(argv, run.child_env(), timeout=300)
    doc = json.loads((work / "out" / "results.json").read_text(encoding="utf-8"))
    boot = doc["bootstrap"]
    if boot["n_failed"]:
        raise SystemExit(f"{boot['n_failed']} replicates failed; not storing a reference")
    reference = {
        "input": inputs.REFERENCE_PANEL,
        "args": list(inputs.REFERENCE_BOOTSTRAP_ARGS),
        "estimates": doc["estimates"],
        "se": boot["se"],
        "intervals": {
            name: {kind: [iv[kind]["lower"], iv[kind]["upper"]] for kind in ("quantile", "hpd")}
            for name, iv in boot["intervals"].items()
        },
    }
    path = run.HERE / "reference" / "bootstrap_fixed.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
