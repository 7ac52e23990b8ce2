"""The README's Python examples run as written.

Every ```` ```python ```` block of the README is executed in order in
one namespace, as a reader pasting them into one session would, so a
renamed or removed public name cannot leave the quick start stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    # The quick start prints the test accuracy first.
    assert 0.5 <= float(printed[0]) <= 1.0
