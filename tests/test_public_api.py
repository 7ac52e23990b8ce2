"""The package exports only names that the package or the README uses.

A name in ``spdrose.__all__`` that no module calls and the README does
not document is a test-only name; this guard keeps new ones out.
"""

import re
import types
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent
README = SRC.parent.parent / "README.md"


def _used(name, text):
    """Whether ``name`` appears as a word in ``text`` off its own def or class line."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(
        word.search(line) and not definition.match(line) for line in text.splitlines()
    )


def test_every_exported_name_is_used_in_src_or_documented():
    sources = [
        path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    ]
    readme = README.read_text()
    unused = [
        name
        for name in spdrose.__all__
        if not isinstance(getattr(spdrose, name), types.ModuleType)
        and not _used(name, readme)
        and not any(_used(name, text) for text in sources)
    ]
    assert unused == []
