"""Every list of SPD points in ``spdrose`` is checked as one stack.

``SpdMatrix(a)`` runs the checks for one matrix; ``spd_stack`` runs them
for a whole stack with one eigensolve call.  A ``SpdMatrix(...)`` call
inside a loop or a comprehension would check the points of a list one at
a time, so this guard keeps such calls out of the package.
"""

import ast
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _constructions_in_loops(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "SpdMatrix":
                yield f"{path.name}:{node.lineno}: SpdMatrix in a {type(loop).__name__}"


def test_no_module_builds_spd_points_one_at_a_time_in_a_loop():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in _constructions_in_loops(path)] == []


def test_the_guard_sees_each_kind_of_loop(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "for a in arrays:\n    out.append(SpdMatrix(a))\n"
        "[manifold.SpdMatrix(a) for a in arrays]\n"
        "tuple(SpdMatrix(a) for a in arrays)\n"
        "while todo:\n    SpdMatrix(todo.pop())\n"
        "SpdMatrix(a)\nspd_stack([a for a in arrays])\n",
        encoding="ascii",
    )
    flagged = [line.split(":", 1)[1] for line in _constructions_in_loops(sample)]
    assert flagged == [
        "2: SpdMatrix in a For",
        "6: SpdMatrix in a While",
        "3: SpdMatrix in a ListComp",
        "4: SpdMatrix in a GeneratorExp",
    ]
