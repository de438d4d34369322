"""Every name a package module imports is used in that module, every
private function is used somewhere in the package, and importing the package
loads no process pool.

No linter runs on the package, so this parses each module and fails on an
imported name that nothing in the module reads. A name listed in the
module's ``__all__`` counts as used: it is re-exported. It also fails on a
``_``-prefixed function or method that no code in the package names outside
its own definition.
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
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
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
        "def f(x: Mapping):\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Sequence")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
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
