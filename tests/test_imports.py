"""Every name a package module imports is used in that module, and importing
the package loads no process pool.

No linter runs on the package, so this parses each module and fails on an
imported name that nothing in the module reads. A name listed in the
module's ``__all__`` counts as used: it is re-exported.
"""

import ast
import os
import subprocess
import sys
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
