import json
from pathlib import Path

import run
import workload
from tracer import Tracer

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_match_the_declaration():
    ops = [{"role": "timed", "wall_s": 2.0, "cpu_s": 1.5, "attempted": 4, "failed": 1}]
    metrics, walls = run.end_to_end(ops, [0.1, 0.3, 0.2], peak_rss_kb=2048)
    assert walls == [2.0]
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert metrics["setup_s"][0] == 0.2
    assert metrics["items_per_s"][0] == 1.5
    assert metrics["completed_frac"][0] == 0.75
    assert metrics["peak_rss_mb"][0] == 2.0


def test_tail_note_names_the_highest_percentile_with_ten_ops_beyond():
    assert "too few" in run.tail_note([1.0] * 19)
    assert run.tail_note([float(i) for i in range(1, 26)]).endswith("p60 15 s")


def test_per_layer_metrics_match_the_declaration():
    metrics, problems = workload.layer_metrics(Tracer(), [])
    assert problems == []
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("per_layer")


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_determinism_compares_ops_only_within_one_input_set():
    ops = [
        {"role": "timed", "input": "set0", "jobs": 1, "digest": "a" * 64},
        {"role": "timed", "input": "set1", "jobs": 1, "digest": "b" * 64},
        {"role": "timed", "input": "set0", "jobs": 2, "digest": "a" * 64},
    ]
    assert workload.determinism_problems(ops) == []
    ops.append({"role": "timed", "input": "set1", "jobs": 2, "digest": "c" * 64})
    problems = workload.determinism_problems(ops)
    assert len(problems) == 1 and problems[0].startswith("set1:")


def test_window_runs_one_whole_round_then_stops_before_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workload.time, "perf_counter", lambda: clock[0])
    runner = workload.Runner(Path("."))
    started = []

    def fake_run(role, source, argv, jobs=None, traced=False):
        started.append(source)
        clock[0] += 4.0
        return {"wall_s": 4.0}

    monkeypatch.setattr(runner, "run", fake_run)
    runner.window(deadline=1.0, cycle=[("timed", "set0", [], 1, False), ("timed", "set1", [], 1, False)])
    assert started == ["set0", "set1"]
    started.clear()
    clock[0] = 0.0
    runner.window(deadline=17.0, cycle=[("timed", "set0", [], 1, False), ("timed", "set1", [], 1, False)])
    assert started == ["set0", "set1", "set0", "set1"]
