import contextlib
import inspect
import io
import sys

import pytest

import choicestats
from choicestats import cli
from choicestats.model import DesignArrays

import inputs
import tracer as tracing
from tracer import END, NAME, PARENT, START, Tracer, per_op_summary, self_times


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("estimation.estimate", 1.0, 4.0, 0),
        _span("model.DesignArrays.hessian", 2.0, 3.0, 1),
        _span("dataio.load_dataset", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_sum_to_each_op_wall_time():
    spans = [
        _span("cli.main", 0.0, 10.0, -1, op=0),
        _span("model.build_design", 1.0, 4.0, 0, op=0),
        _span("model.DesignArrays.gradient", 2.0, 2.5, 1, op=0),
        _span("estimation.estimate_design", 5.0, 9.0, 0, op=0),
        _span("cli.main", 20.0, 26.0, -1, op=1),
        _span("util.seed_from", 21.0, 22.0, 4, op=1),
    ]
    summary = per_op_summary(spans)
    assert summary[0]["wall_s"] == 10.0
    assert summary[1]["wall_s"] == 6.0
    assert dict(summary[0]["layers"]) == {"cli": [1, 3.0], "model": [2, 3.0], "estimation": [1, 4.0]}
    assert dict(summary[0]["names"])["model.build_design"] == [1, 2.5]
    for op in summary.values():
        assert sum(s for _, s in op["layers"].values()) == op["wall_s"]


def _choicestats_bindings():
    bindings = {}
    for name, module in list(sys.modules.items()):
        if name == "choicestats" or name.startswith("choicestats."):
            for attr, value in vars(module).items():
                bindings[(name, attr)] = value
    for attr, value in vars(DesignArrays).items():
        bindings[("DesignArrays", attr)] = value
    return bindings


def test_uninstall_restores_every_wrapped_function():
    before = _choicestats_bindings()
    tracer = Tracer().install()
    try:
        patched = tracer.patched
        assert patched
        owners = {owner.__name__ for owner, _, _ in patched}
        assert {"choicestats", "choicestats.cli", "choicestats.model", "DesignArrays"} <= owners
        assert cli.build_design is not before[("choicestats.cli", "build_design")]
        assert choicestats.build_design is not before[("choicestats", "build_design")]
        assert DesignArrays.__dict__["hessian"] is not before[("DesignArrays", "hessian")]
    finally:
        tracer.uninstall()
    after = _choicestats_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_install_twice_is_refused():
    tracer = Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_traced_cli_op_is_consistent(tmp_path):
    data = inputs.generate(seed=5, n_persons=200, obs_per_person=2, with_wait=False)
    inputs.write_choice_inputs(data, tmp_path)
    argv = ["estimate", "--data", str(tmp_path / "data.csv"), "--spec", str(tmp_path / "spec.json"),
            "--out", str(tmp_path / "out")]
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer:
        assert tracer.op("cli.main", cli.main, argv) == 0

    names = [span[NAME] for span in tracer.spans]
    assert names[0] == "cli.main"
    assert all(span[END] >= span[START] for span in tracer.spans)
    # Kernel calls nest no DesignArrays span inside another.
    for span in tracer.spans:
        if span[PARENT] >= 0 and span[NAME].startswith("model.DesignArrays."):
            assert not tracer.spans[span[PARENT]][NAME].startswith("model.DesignArrays.")
    assert "model.DesignArrays.probabilities" not in names
    assert names.count("model.build_design") == 2
    assert tracer.counters["estimation.fits"] == 1
    assert tracer.counters["estimation.iterations"] >= 1
    assert tracer.counters["model.kernel.x_bytes_computed"] > 0

    summary = per_op_summary(tracer.spans)[0]
    total = sum(s for _, s in summary["layers"].values())
    assert total == pytest.approx(summary["wall_s"], rel=1e-9)
    assert set(summary["layers"]) <= set(tracing.LAYERS)


def test_every_traced_module_has_public_functions():
    for layer in tracing.TRACED_MODULES:
        module = sys.modules[f"choicestats.{layer}"]
        own = [v for k, v in vars(module).items()
               if inspect.isfunction(v) and not k.startswith("_") and v.__module__ == module.__name__]
        assert own, layer
