"""Every integer ``spdrose`` checks is stored as the ``int`` the check returns.

``require_integer`` accepts a numpy integer and returns it as a Python
``int``.  A call whose result is thrown away leaves the caller holding
the value it was given, which a JSON writer may reject later, so this
guard keeps bare ``require_integer(...)`` statements out of the package.
"""

import ast
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent


def _discarded_checks(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "require_integer":
            yield f"{path.name}:{node.lineno}: require_integer result discarded"


def test_no_module_discards_a_checked_integer():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in _discarded_checks(path)] == []


def test_the_guard_sees_each_discarded_call(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "require_integer(count, 'count')\n"
        "x = require_integer(x, 'x', least=1)\n"
        "for v in grid:\n    errors.require_integer(v, 'grid size')\n"
        "cleaned.append(require_integer(value, 'value'))\n"
        "if flag:\n    require_integer(seed, 'seed')\n",
        encoding="ascii",
    )
    flagged = [line.split(":", 1)[1] for line in _discarded_checks(sample)]
    assert flagged == [
        "1: require_integer result discarded",
        "4: require_integer result discarded",
        "7: require_integer result discarded",
    ]
