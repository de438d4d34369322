"""choicestats benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload bootstrap_panel --seed 1 --seconds 60 --trace 0

The run generates its inputs from --seed, times ``import choicestats`` in
several fresh processes, and runs the workload in one more fresh process
(``workload.py``) with BLAS pinned to one thread. It then checks the
program's outputs and prints one JSON object as its last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("estimate_large", "bootstrap_panel", "montecarlo_size")
# Import probes before the workload and again after it, a run's length apart:
# the machine's speed drifts in phases, so one burst of probes samples one phase.
SETUP_PROBES = 4
# One thread per BLAS call, so --jobs 2 workers never oversubscribe 2 CPUs.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = (
    "import time; t = time.perf_counter(); import choicestats; "
    "s = time.perf_counter() - t; print(repr(s)); print(choicestats.__file__)"
)
# Bootstrap and robust (person-clustered) SEs estimate the same sandwich;
# this is the agreement acceptance criterion 8 demands of the program.
BOOTSTRAP_SE_RTOL = 0.25
# Stored-reference tolerances, in units of the reference bootstrap SE.
REFERENCE_TOL_SE = 1e-4


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for name in BLAS_PINS:
        env[name] = "1"
    return env


def run_child(argv, env, timeout):
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} exceeded {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:2]))} exited with code {proc.returncode}")
    return out.decode("utf-8")


def probe_setup(env, count):
    """Import times of ``choicestats`` in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        seconds, path = run_child([sys.executable, "-c", PROBE], env, 120).split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"choicestats imported from {path}, not from {SRC}")
        times.append(float(seconds))
    return times


def make_inputs(workload, seed, directory):
    """Write the workload's input sets to ``directory/set<i>``; return their data and sizes."""
    if workload == "montecarlo_size":
        return [None], [inputs.write_config(inputs.montecarlo_config(seed), directory / "set0")]
    if workload == "estimate_large":
        sets = [inputs.generate(seed, n_persons=20000, obs_per_person=1, with_wait=True)]
    else:
        sets = inputs.bootstrap_panels(seed)
        inputs.write_choice_inputs(inputs.reference_panel(), directory / "reference")
    return sets, [inputs.write_choice_inputs(data, directory / f"set{i}") for i, data in enumerate(sets)]


def _read(op, name):
    return json.loads((Path(op["outdir"]) / name).read_text(encoding="utf-8"))


def check_estimate(data, op):
    fit = oracle.fit(*data.design(), start=[p["start"] for p in data.spec["parameters"]])
    return oracle.compare_estimate(_read(op, "results.json"), fit, data.free_names)


def check_bootstrap(data, op):
    problems = []
    doc = _read(op, "results.json")
    boot = doc["bootstrap"]
    if boot["n_failed"] != 0:
        problems.append(f"bootstrap: {boot['n_failed']} failed replicates")
    fit = oracle.fit(*data.design(), start=[p["start"] for p in data.spec["parameters"]])
    for i, name in enumerate(data.free_names):
        gap = abs(doc["estimates"][name] - fit.params[i]) / fit.se_classical[i]
        if not gap <= oracle.ESTIMATE_TOL_SE:
            problems.append(f"bootstrap: {name} full-sample estimate is {gap:.2e} SE from the oracle")
        rel = abs(boot["se"][name] - fit.se_robust[i]) / fit.se_robust[i]
        if not rel <= BOOTSTRAP_SE_RTOL:
            problems.append(f"bootstrap: {name} SE {boot['se'][name]:.4g} vs robust {fit.se_robust[i]:.4g}")
    return problems


def check_fixed_reference(reference_op):
    problems = []
    stored = json.loads((HERE / "reference" / "bootstrap_fixed.json").read_text(encoding="utf-8"))
    got = _read(reference_op, "results.json")
    if got["bootstrap"]["n_failed"] != 0:
        problems.append(f"fixed reference: {got['bootstrap']['n_failed']} failed replicates")
    for name, se_ref in stored["se"].items():
        se = got["bootstrap"]["se"][name]
        if not abs(se - se_ref) <= REFERENCE_TOL_SE * se_ref:
            problems.append(f"fixed reference: {name} SE {se!r} vs stored {se_ref!r}")
        values = [("estimate", got["estimates"][name], stored["estimates"][name])]
        for kind, (lower, upper) in stored["intervals"][name].items():
            interval = got["bootstrap"]["intervals"][name][kind]
            values += [(f"{kind} lower", interval["lower"], lower), (f"{kind} upper", interval["upper"], upper)]
        for label, value, ref in values:
            if not abs(value - ref) <= REFERENCE_TOL_SE * se_ref:
                problems.append(f"fixed reference: {name} {label} {value!r} vs stored {ref!r}")
    return problems


def check_montecarlo(op):
    doc = _read(op, "report.json")
    cells = doc["config"]["replications"] * len(doc["config"]["effect_sizes"])
    lines = (Path(op["outdir"]) / "replications.csv").read_text(encoding="utf-8").splitlines()
    problems = []
    if len(lines) - 1 != cells:
        problems.append(f"montecarlo: {len(lines) - 1} rows in replications.csv, expected {cells}")
    if doc["report"]["failures"] != 0:
        problems.append(f"montecarlo: {doc['report']['failures']} failed cells")
    return problems


def tail_note(walls):
    """Sample count, and the highest percentile with at least ten ops beyond it."""
    n = len(walls)
    if n < 20:
        return f"median of {n} ops, too few for a percentile above it with 10 ops beyond"
    return f"median of {n} ops, p{100 * (n - 10) // n} {sorted(walls)[n - 11]:.4g} s"


def end_to_end(ops, setup_times, peak_rss_kb):
    """End-to-end metrics of the timed ops, and their wall times."""
    timed = [op for op in ops if op["role"] == "timed"]
    walls = [op["wall_s"] for op in timed]
    attempted = sum(op["attempted"] for op in timed)
    completed = attempted - sum(op["failed"] for op in timed)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median((op["attempted"] - op["failed"]) / op["wall_s"] for op in timed), "1/s"),
        "cpu_s": (statistics.median(op["cpu_s"] for op in timed), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "completed_frac": (completed / attempted, "frac"),
    }, walls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "choicestats" / "__init__.py").is_file():
        raise BenchError(f"no choicestats source under {SRC}; run from a repository checkout")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sets, sizes = make_inputs(args.workload, args.seed, work / "inputs")
    env = child_env()
    probe_setup(env, 1)  # warms the file cache; not counted
    setup_times = probe_setup(env, SETUP_PROBES)

    result_path = work / "workload.json"
    run_child(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--inputs", str(work / "inputs"),
         "--work", str(work), "--result", str(result_path)],
        env,
        timeout=args.seconds + 120,
    )
    child = json.loads(result_path.read_text(encoding="utf-8"))
    setup_times += probe_setup(env, SETUP_PROBES) + [child["setup_s"]]
    ops = child["ops"]
    main_ops = [op for op in ops if op["role"] != "fixed_reference"]

    problems = list(child["problems"])
    problems += [f"op {i} ({op['role']}) exited with {op['exit']}" for i, op in enumerate(ops) if op["exit"]]
    if not problems:
        first = {}
        for op in main_ops:
            first.setdefault(op["input"], op)
        for i, data in enumerate(sets):
            op = first[f"set{i}"]
            if args.workload == "estimate_large":
                found = check_estimate(data, op)
            elif args.workload == "bootstrap_panel":
                found = check_bootstrap(data, op)
            else:
                found = check_montecarlo(op)
            problems += [f"set{i}: {problem}" for problem in found]
        if args.workload == "bootstrap_panel":
            problems += check_fixed_reference(next(op for op in ops if op["role"] == "fixed_reference"))

    info = {"machine": child["machine"], "inputs": sizes, "ops": len(ops)}
    if args.trace:
        metrics = child["per_layer"]
        counts = f"{sum(op['traced'] for op in ops)} traced ops"
    else:
        metrics, walls = end_to_end(ops, setup_times, child["peak_rss_kb"])
        counts = f"op_s: {tail_note(walls)}; setup_s: median of {len(setup_times)} imports"
    spread_path = HERE / "spread.json"
    if spread_path.is_file():
        info["recorded_spread"] = json.loads(spread_path.read_text(encoding="utf-8"))
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(counts)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(op["attempted"] for op in main_ops)
    failed = sum(op["failed"] for op in main_ops)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
