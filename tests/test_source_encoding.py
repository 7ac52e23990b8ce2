"""Every text-mode file access in ``spdrose`` names its encoding.

Without one, Python picks the locale's encoding, so a file written on
one machine may not read back on another.  Each ``open(...)`` call whose
mode is not binary, and each ``read_text`` and ``write_text`` call, of
every ``spdrose`` module passes ``encoding`` by keyword.
"""

import ast
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent


def _is_text_access(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "write_text"):
        return True
    if name != "open":
        return False
    # Builtin open takes the mode second, Path.open first.
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return True
    return not (isinstance(mode, ast.Constant) and "b" in mode.value)


def _unnamed_encodings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_text_access(node):
            if not any(kw.arg == "encoding" for kw in node.keywords):
                yield f"{path.name}:{node.lineno}"


def test_text_file_accesses_name_their_encoding():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in _unnamed_encodings(path)] == []


def test_the_guard_sees_each_kind_of_access(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "open(p)\nopen(p, 'w')\nopen(p, 'rb')\nopen(p, mode='wb')\n"
        "q.open()\nq.open('rb')\nq.read_text()\nq.write_text(s)\n"
        "open(p, 'r', encoding='ascii')\nq.write_text(s, encoding='ascii')\n",
        encoding="ascii",
    )
    flagged = [line.split(":")[1] for line in _unnamed_encodings(sample)]
    assert flagged == ["1", "2", "5", "7", "8"]
