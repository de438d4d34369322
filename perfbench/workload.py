"""One benchmark workload, run in a fresh process started by ``run.py``.

The first statement times ``import choicestats``: that is the set-up every
command-line run pays. Each op is one in-process ``choicestats.cli.main``
call. The process writes a JSON result for ``run.py`` and prints nothing
itself; the CLI's own stdout is captured per op.
"""

import time

_T0 = time.perf_counter()
import choicestats  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from choicestats import cli  # noqa: E402

import machine  # noqa: E402
import tracer as tracing  # noqa: E402
from inputs import REFERENCE_BOOTSTRAP_ARGS  # noqa: E402

BOOTSTRAP_S = 200
OUTPUT_FILES = {
    "estimate": ("results.json", "table.txt"),
    "bootstrap": ("draws.csv", "results.json", "table.txt"),
    "montecarlo": ("report.json", "replications.csv"),
}
# Relative tolerance of the check that layer self times sum to the op wall
# time; the sum telescopes, so only float rounding is left.
SELF_TIME_RTOL = 1e-9


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_kb():
    """Peak resident set of this process and of its waited-for children, in KiB.

    This process's own ``ru_maxrss`` would also count the image of the
    parent it was forked from before exec; ``VmHWM`` covers only its own.
    """
    status = Path("/proc/self/status").read_text(encoding="utf-8")
    own = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _items(argv, code, outdir):
    """(attempted, failed) work items of one op: a fit, a replicate or a cell."""
    command = argv[0]
    if command == "estimate":
        attempted = 1
    elif command == "bootstrap":
        attempted = int(argv[argv.index("--S") + 1])
    else:
        config = json.loads(Path(argv[argv.index("--config") + 1]).read_text(encoding="utf-8"))
        attempted = config["replications"] * len(config["effect_sizes"])
    if code != 0:
        return attempted, attempted
    if command == "estimate":
        doc = json.loads((outdir / "results.json").read_text(encoding="utf-8"))
        return attempted, int(doc["status"] != "converged")
    if command == "bootstrap":
        doc = json.loads((outdir / "results.json").read_text(encoding="utf-8"))
        return attempted, doc["bootstrap"]["n_failed"]
    doc = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    return attempted, doc["report"]["failures"]


class Runner:
    def __init__(self, work):
        self.work = work
        self.ops = []
        self.tracer = tracing.Tracer()

    def run(self, role, source, argv, jobs=None, traced=False):
        """Run one op; ``source`` names the input set it reads."""
        index = len(self.ops)
        outdir = self.work / "ops" / f"{index:03d}-{role}"
        full = [*argv, "--out", str(outdir)] + ([] if jobs is None else ["--jobs", str(jobs)])
        stdout = io.StringIO()
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            if traced:
                with self.tracer:
                    code = self.tracer.op("cli.main", cli.main, full)
            else:
                code = cli.main(full)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        attempted, failed = _items(argv, code, outdir)
        digest = hashlib.sha256()
        for name in OUTPUT_FILES[argv[0]]:
            path = outdir / name
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        record = {
            "role": role,
            "input": source,
            "jobs": jobs,
            "traced": traced,
            "exit": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "attempted": attempted,
            "failed": failed,
            "digest": digest.hexdigest(),
            "outdir": str(outdir),
        }
        self.ops.append(record)
        return record

    def window(self, deadline, cycle):
        """Run the (role, source, argv, jobs, traced) ops of ``cycle`` in turn.

        The first round always runs whole. After it, an op is not started if
        its previous run would not have ended by ``deadline``, so a run stays
        within its time.
        """
        last = {}
        while True:
            for i, op in enumerate(cycle):
                if i in last and time.perf_counter() + last[i] > deadline:
                    return
                last[i] = self.run(*op)["wall_s"]


def schedule(runner, workload, inputs, seed, seconds, trace):
    """Run the workload's ops until ``seconds`` have passed.

    Timed ops run at the --jobs the workload is defined with: 1 for
    bootstrap_panel, 2 for montecarlo_size. A traced run cycles a traced
    --jobs 1 op, an untraced --jobs 1 op and, for commands that take --jobs,
    an untraced --jobs 2 op: the layer split, the tracing overhead and the
    --jobs 2 speed-up. Every op's result files must match, so the --jobs 1
    outputs check the --jobs 2 ones.
    """
    sets = sorted(path for path in inputs.iterdir() if path.name.startswith("set"))

    def data(path):
        return ["--data", str(path / "data.csv"), "--spec", str(path / "spec.json")]

    if workload == "estimate_large":
        argvs, jobs = [["estimate", *data(path), "--se", "--t"] for path in sets], None
    elif workload == "bootstrap_panel":
        runner.run("fixed_reference", "reference", ["bootstrap", *data(inputs / "reference"), *REFERENCE_BOOTSTRAP_ARGS])
        argvs = [["bootstrap", *data(path), "--S", str(BOOTSTRAP_S), "--seed", str(seed)] for path in sets]
        jobs = 1
    elif workload == "montecarlo_size":
        argvs, jobs = [["montecarlo", "--config", str(path / "config.json")] for path in sets], 2
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    cycle = []
    for path, argv in zip(sets, argvs):
        if not trace:
            cycle.append(("timed", path.name, argv, jobs, False))
            continue
        cycle += [("traced", path.name, argv, 1, True), ("timed_j1", path.name, argv, 1, False)]
        if jobs is not None:
            cycle.append(("timed_j2", path.name, argv, 2, False))
    runner.window(time.perf_counter() + seconds, cycle)


def determinism_problems(ops):
    """Every op on one input set must write the same bytes, at any --jobs."""
    by_input = {}
    for op in ops:
        by_input.setdefault(op["input"], []).append(op)
    problems = []
    for source, same in by_input.items():
        if len({op["digest"] for op in same}) > 1:
            problems.append(f"{source}: outputs differ across {len(same)} ops: " + ", ".join(
                f"{op['role']}/jobs={op['jobs']}:{op['digest'][:12]}" for op in same))
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, ops):
    """Per-op means of the per-layer metrics, from the traced ops' spans."""
    summary = tracing.per_op_summary(tracer.spans)
    n_ops = max(1, len(summary))
    problems = []
    for op_id, op in summary.items():
        total = sum(self_s for _, self_s in op["layers"].values())
        if abs(total - op["wall_s"]) > SELF_TIME_RTOL * op["wall_s"]:
            problems.append(
                f"traced op {op_id}: layer self times sum to {total!r} s, wall is {op['wall_s']!r} s"
            )

    def per_op(table, names, field):
        return sum(op[table][name][field] for op in summary.values() for name in names) / n_ops

    def self_s(*names):
        return per_op("names", names, 1)

    def calls(name):
        return per_op("names", (name,), 0)

    seen = {name for op in summary.values() for name in op["names"]}
    inference_tests = sorted(n for n in seen if n.startswith("inference.") and n != "inference.lm_test_at")
    kernel = "model.DesignArrays."
    counters = tracer.counters
    evals = sum(calls(kernel + m) for m in ("log_likelihood", "gradient", "hessian"))
    iterations = counters["estimation.iterations"] / n_ops

    untraced = {}
    for op in ops:
        if op["role"].startswith("timed") and not op["traced"]:
            untraced.setdefault(op["jobs"] or 1, []).append(op["wall_s"])
    traced_wall = _median([op["wall_s"] for op in ops if op["traced"]])
    j1 = _median(untraced.get(1, []))
    j2 = _median(untraced.get(2, []))

    metrics = {
        "dataio.load_dataset.self_s": (self_s("dataio.load_dataset"), "s"),
        "dataio.write.self_s": (
            self_s("dataio.write_json", "bootstrap.save_draws", "montecarlo.save_rows"), "s"),
        "model.build_design.self_s": (self_s("model.build_design"), "s"),
        "model.build_design.calls": (calls("model.build_design"), "count"),
        "model.simulate_dataset.self_s": (self_s("model.simulate_dataset"), "s"),
        "model.log_likelihood.calls": (calls(kernel + "log_likelihood"), "count"),
        "model.log_likelihood.self_s": (self_s(kernel + "log_likelihood"), "s"),
        "model.gradient.calls": (calls(kernel + "gradient"), "count"),
        "model.gradient.self_s": (self_s(kernel + "gradient"), "s"),
        "model.hessian.calls": (calls(kernel + "hessian"), "count"),
        "model.hessian.self_s": (self_s(kernel + "hessian"), "s"),
        "model.score.self_s": (self_s(kernel + "score"), "s"),
        "model.kernel.x_bytes_computed": (counters["model.kernel.x_bytes_computed"] / n_ops, "bytes"),
        "model.take_persons.self_s": (self_s(kernel + "take_persons"), "s"),
        "model.fix_column.self_s": (self_s(kernel + "fix_column"), "s"),
        "estimation.fits": (counters["estimation.fits"] / n_ops, "count"),
        "estimation.iterations": (iterations, "count"),
        "estimation.nonconverged": (counters["estimation.nonconverged"] / n_ops, "count"),
        "estimation.estimate_design.self_s": (self_s("estimation.estimate_design"), "s"),
        "estimation.evals_per_iteration": (evals / iterations if iterations else 0.0, "ratio"),
        "covariance.covariance_set.self_s": (self_s("covariance.covariance_set"), "s"),
        "inference.lm_test_at.self_s": (self_s("inference.lm_test_at"), "s"),
        "inference.tests.self_s": (self_s(*inference_tests), "s"),
        "bootstrap.replicates": (counters["bootstrap.replicates"] / n_ops, "count"),
        "bootstrap.failed": (counters["bootstrap.failed"] / n_ops, "count"),
        "bootstrap.loop.self_s": (self_s("bootstrap.loop"), "s"),
        "montecarlo.cells": (counters["montecarlo.cells"] / n_ops, "count"),
        "montecarlo.failed": (counters["montecarlo.failed"] / n_ops, "count"),
        "montecarlo.loop.self_s": (self_s("montecarlo.loop"), "s"),
        "util.speedup_j2": (j1 / j2 if j1 and j2 else 0.0, "ratio"),
        "reporting.format_table.self_s": (self_s("reporting.format_table"), "s"),
        "trace.overhead_frac": (traced_wall / j1 - 1.0 if traced_wall and j1 else 0.0, "ratio"),
        "trace.op_s": (traced_wall, "s"),
        "trace.spans_per_op": (len(tracer.spans) / n_ops, "count"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (per_op("layers", (layer,), 1), "s")
        if layer != tracing.ROOT_LAYER:
            metrics[f"{layer}.calls"] = (per_op("layers", (layer,), 0), "count")
    return metrics, problems


def write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
            fh.write("\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    runner = Runner(args.work)
    schedule(runner, args.workload, args.inputs, args.seed, args.seconds, args.trace)
    problems = determinism_problems(runner.ops)
    result = {
        "setup_s": SETUP_S,
        "choicestats_file": choicestats.__file__,
        "ops": runner.ops,
        "peak_rss_kb": _peak_rss_kb(),
        "machine": machine.describe(),
    }
    if args.trace:
        metrics, trace_problems = layer_metrics(runner.tracer, runner.ops)
        problems += trace_problems
        result["per_layer"] = metrics
        write_spans(runner.tracer, args.work / "spans.jsonl")
    result["problems"] = problems
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
