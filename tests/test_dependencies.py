"""The runtime depends on the standard library, numpy and scipy only.

Every import statement of every ``spdrose`` module, at any nesting
level, names a standard-library module, ``numpy``, ``scipy`` or (as a
relative import) the package itself.
"""

import ast
import sys
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_modules_import_only_the_standard_library_numpy_and_scipy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    foreign = {
        f"{path.name}: {root}"
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text()))
        if root not in ALLOWED
    }
    assert foreign == set()
