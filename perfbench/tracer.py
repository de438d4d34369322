"""In-memory span tracer that wraps choicestats from outside the package.

``Tracer.install()`` replaces each public function of the traced modules, in
every ``choicestats`` module namespace that holds it, with a wrapper that
records a span (name, start, end, parent, op id). The public methods of
``DesignArrays`` are wrapped on the class. ``uninstall()`` puts every
original back. Nothing in ``src/`` is edited.

Span names are ``<module>.<function>`` and ``model.DesignArrays.<method>``.
Two exceptions keep the layer view honest:

* ``util.parallel_map`` called from ``bootstrap`` or ``montecarlo`` runs that
  module's replicate loop in-process at ``--jobs 1``, so it is recorded as
  ``bootstrap.loop`` or ``montecarlo.loop``.
* A ``DesignArrays`` method called from inside another one (``gradient`` ->
  ``score_rows`` -> ``probabilities``) is timed inside its caller, so each
  kernel span covers one full softmax pass.

``linalg`` and ``errors`` are not wrapped; their time counts in the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: Modules whose public functions are wrapped; each is one layer.
TRACED_MODULES = (
    "dataio",
    "model",
    "estimation",
    "covariance",
    "inference",
    "bootstrap",
    "montecarlo",
    "reporting",
    "util",
)
#: The op itself: one ``cli.main`` call, recorded by the caller as the root span.
ROOT_LAYER = "cli"
LAYERS = (ROOT_LAYER, *TRACED_MODULES)

_LOOP_ALIASES = {
    ("choicestats.bootstrap", "parallel_map"): "bootstrap.loop",
    ("choicestats.montecarlo", "parallel_map"): "montecarlo.loop",
}
_KERNEL_COUNTED = ("log_likelihood", "gradient", "hessian", "score", "score_rows", "probabilities")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans while installed; counts outcomes at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._in_kernel = False
        self._patched = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def op(self, name, fn, *args):
        """Run ``fn(*args)`` as a new op whose root span is ``name``."""
        self.op_id += 1
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()

    # -- wrapping ------------------------------------------------------------

    def _wrap_function(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if count is not None:
                    count(tracer.counters, None, args)
                raise
            finally:
                tracer._close()
            if count is not None:
                count(tracer.counters, result, args)
            return result

        return wrapper

    def _wrap_method(self, fn, name):
        tracer = self
        counted = fn.__name__ in _KERNEL_COUNTED

        @functools.wraps(fn)
        def wrapper(design, *args, **kwargs):
            if tracer._in_kernel:
                return fn(design, *args, **kwargs)
            tracer._in_kernel = True
            tracer._open(name)
            try:
                return fn(design, *args, **kwargs)
            finally:
                tracer._close()
                tracer._in_kernel = False
                if counted:
                    tracer.counters["model.kernel.x_bytes_computed"] += design.X.nbytes

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import choicestats
        from choicestats.model import DesignArrays

        targets = {}  # original function -> span name in its home module
        for layer in TRACED_MODULES:
            module = sys.modules[f"choicestats.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    targets[value] = f"{layer}.{attr}"

        namespaces = [choicestats] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("choicestats.") and m is not None
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                name = targets.get(value) if inspect.isfunction(value) else None
                if name is None:
                    continue
                name = _LOOP_ALIASES.get((module.__name__, attr), name)
                wrapper = self._wrap_function(value, name, COUNTERS.get(name))
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

        for attr, value in list(vars(DesignArrays).items()):
            if inspect.isfunction(value) and not attr.startswith("_"):
                self._patched.append((DesignArrays, attr, value))
                setattr(DesignArrays, attr, self._wrap_method(value, f"model.DesignArrays.{attr}"))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def patched(self):
        return list(self._patched)


# -- counters recorded at layer boundaries -----------------------------------


def _count_fit(counters, result, args):
    counters["estimation.fits"] += 1
    if result is None or result.status != "converged":
        counters["estimation.nonconverged"] += 1
    if result is not None:
        counters["estimation.iterations"] += result.iterations


def _count_bootstrap(counters, result, args):
    if result is not None:
        counters["bootstrap.replicates"] += result.s_samples
        counters["bootstrap.failed"] += result.n_failed


def _count_montecarlo(counters, result, args):
    config = args[0]
    cells = config.replications * len(config.effect_sizes)
    counters["montecarlo.cells"] += cells
    counters["montecarlo.failed"] += cells if result is None else result.failures


COUNTERS = {
    "estimation.estimate_design": _count_fit,
    "bootstrap.bootstrap_run": _count_bootstrap,
    "montecarlo.size_and_power_experiment": _count_montecarlo,
}


# -- arithmetic on recorded spans --------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_of(name):
    return name.split(".", 1)[0]


def per_op_summary(spans):
    """For each op id: wall time, and per span name and per layer the calls and self time."""
    own = self_times(spans)
    ops = {}
    for span, self_s in zip(spans, own):
        op = ops.setdefault(
            span[OP],
            {"wall_s": 0.0, "names": defaultdict(lambda: [0, 0.0]), "layers": defaultdict(lambda: [0, 0.0])},
        )
        if span[PARENT] < 0:
            op["wall_s"] += span[END] - span[START]
        for key, table in ((span[NAME], op["names"]), (layer_of(span[NAME]), op["layers"])):
            table[key][0] += 1
            table[key][1] += self_s
    return ops
