"""Every name a module of the package, the tests or the CI scripts imports
is used in that module, every private function is used somewhere in the
package, importing the package loads no process pool, only ``linalg``
decides singularity, and the command line catches no exception wholesale.

No linter runs on the repository, so this parses each module and fails on
an imported name that nothing in the module reads. A name listed in the
module's ``__all__`` counts as used: it is re-exported; one whose line says
``# noqa: F401`` is imported for its effect. It also fails on a
``_``-prefixed function or method that no code in the package names outside
its own definition, on a module other than ``linalg`` that decomposes,
inverts or solves with ``numpy.linalg``, on a function outside
``linalg`` that takes its own singularity threshold, and on a handler in
any module that could report a program error as an input error: a bare
``except``, one naming ``Exception``, ``BaseException``, ``TypeError``,
``KeyError`` or ``AttributeError``, or one naming ``ValueError`` outside
the text parser ``dataio._numbers``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "choicestats"


def unused_imports(source):
    """(line, name) of each imported name the module never reads, unless its
    line says ``# noqa: F401``, the mark of an import made for its effect."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    imported = {name: line for name, line in imported.items() if "# noqa: F401" not in lines[line - 1]}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom typing import Mapping, Sequence\n"
        "from .a import exported\n"
        "__all__ = ['exported']\n"
        "import probe  # noqa: F401\n"
        "from b import (\n    kept,  # noqa: F401\n    dropped,\n)\n"
        "def f(x: Mapping):\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Sequence"), (10, "dropped")]


#: The package, the tests and the CI scripts: no linter runs on any of them.
SCANNED = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted(Path(__file__).parent.glob("*.py")),
    *sorted((PACKAGE.parents[1] / ".github" / "scripts").glob("*.py")),
]


@pytest.mark.parametrize("path", SCANNED, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced_private_functions(sources):
    """(module, line, name) of each private function or method, dunders
    aside, that nothing in ``sources`` (module name to source) names outside
    its own definition. Names are matched, not resolved, so a private
    function sharing its name with a used one passes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
                and names[node.name] == Counter(_referenced_names(node))[node.name]
            ):
                found.append((module, node.lineno, node.name))
    return sorted(found)


def test_the_scan_finds_an_unreferenced_private_function():
    sources = {
        "a": (
            "def _helper():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "def _unused():\n    pass\n"
            "class C:\n"
            "    def __init__(self):\n        self._method()\n"
            "    def _method(self):\n        pass\n"
            "    def _orphan(self):\n        pass\n"
        ),
        "b": "from .a import _helper\nprint(_helper())\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a", 3, "_recursive"),
        ("a", 5, "_unused"),
        ("a", 12, "_orphan"),
    ]


def test_every_private_function_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def test_importing_the_package_loads_no_process_pool():
    # parallel_map imports the pool only when it runs more than one worker.
    code = "import sys, choicestats; print('concurrent.futures.process' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"


SINGULARITY_CALLS = ("eigh", "inv", "solve")
THRESHOLD_PARAMETERS = ("threshold", "rel_threshold")


def numpy_linalg_calls(source):
    """(line, name) of each ``<...>.linalg.<name>`` reference or
    ``from numpy.linalg import <name>`` with name in SINGULARITY_CALLS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in SINGULARITY_CALLS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, a.name) for a in node.names if a.name in SINGULARITY_CALLS]
    return sorted(found)


def threshold_parameters(source):
    """(line, function, parameter) of each function parameter named in
    THRESHOLD_PARAMETERS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            name = getattr(node, "name", "<lambda>")
            found += [
                (node.lineno, name, a.arg) for a in arguments if a.arg in THRESHOLD_PARAMETERS
            ]
    return sorted(found)


def test_the_scan_finds_a_numpy_linalg_call():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import inv, norm\n"
        "w, v = np.linalg.eigh(m)\n"
        "x = np.linalg.solve(m, b)\n"
        "n = np.linalg.norm(x)\n"
        "y = solver.solve(m)\n"
    )
    assert numpy_linalg_calls(source) == [(2, "inv"), (3, "eigh"), (4, "solve")]


def test_the_scan_finds_a_threshold_parameter():
    source = (
        "def f(m, threshold=1e-10):\n    pass\n"
        "def g(m, *, rel_threshold=1e-12, thresholds=()):\n    pass\n"
        "h = lambda m, threshold: m\n"
    )
    assert threshold_parameters(source) == [
        (1, "f", "threshold"),
        (3, "g", "rel_threshold"),
        (5, "<lambda>", "threshold"),
    ]


OUTSIDE_LINALG = sorted(path for path in PACKAGE.glob("*.py") if path.name != "linalg.py")


@pytest.mark.parametrize("path", OUTSIDE_LINALG, ids=lambda path: path.name)
def test_only_linalg_decomposes_inverts_or_solves(path):
    assert numpy_linalg_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", OUTSIDE_LINALG, ids=lambda path: path.name)
def test_only_linalg_sets_a_singularity_threshold(path):
    assert threshold_parameters(path.read_text(encoding="utf-8")) == []


BROAD_EXCEPTIONS = ("ValueError", "Exception")
#: Handlers of these would also take a program error for an input error.
PROGRAM_ERRORS = ("Exception", "BaseException", "TypeError", "KeyError", "AttributeError", "ValueError")
#: Per module, the functions that may catch ValueError: they parse text, where it means "not a number".
VALUE_ERROR_PARSERS = {"dataio.py": ("_numbers",)}


def broad_handlers(source, caught=BROAD_EXCEPTIONS, parsers=()):
    """(line, caught) of each bare ``except`` and each ``except`` naming a
    class in ``caught``, alone or in a tuple; a ValueError handler inside a
    function named in ``parsers`` is allowed."""
    tree = ast.parse(source)
    allowed = {
        handler
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name in parsers
        for handler in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                found.append((node.lineno, "bare"))
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found += [
                (node.lineno, t.id)
                for t in types
                if isinstance(t, ast.Name) and t.id in caught and (t.id != "ValueError" or node not in allowed)
            ]
    return sorted(found)


def test_the_scan_finds_a_broad_handler():
    source = (
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, ValueError) as exc:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, ChoiceStatsError):\n    pass\n"
    )
    assert broad_handlers(source) == [(3, "bare"), (7, "ValueError"), (11, "Exception")]


def test_the_command_line_catches_no_exception_wholesale():
    # cli.main maps ChoiceStatsError subclasses to exit codes; anything else
    # is a program error and must reach the user with its traceback.
    assert broad_handlers((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_handler_of_program_errors():
    source = (
        "try:\n    f()\nexcept BaseException:\n    pass\n"
        "try:\n    f()\nexcept (TypeError, OSError):\n    pass\n"
        "def _numbers(column):\n"
        "    try:\n        f()\n    except (ValueError, KeyError):\n        pass\n"
        "def parse(text):\n"
        "    try:\n        f()\n    except AttributeError:\n        pass\n"
        "    except ValueError:\n        pass\n"
    )
    assert broad_handlers(source, PROGRAM_ERRORS, ("_numbers",)) == [
        (3, "BaseException"),
        (7, "TypeError"),
        (12, "KeyError"),
        (17, "AttributeError"),
        (19, "ValueError"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_catches_a_program_error(path):
    # main maps ChoiceStatsError subclasses to exit codes; anything else is a
    # program error and must reach the user with its traceback, wherever it
    # is raised.
    source = path.read_text(encoding="utf-8")
    assert broad_handlers(source, PROGRAM_ERRORS, VALUE_ERROR_PARSERS.get(path.name, ())) == []
