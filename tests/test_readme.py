"""The README's examples run as written.

Every ```` ```python ```` block of the README is executed in order in
one namespace, as a reader pasting them into one session would, so a
renamed or removed public name cannot leave the quick start stale.
Every ``spdrose`` command of its ```` ```sh ```` blocks must parse with
the CLI's own parser, so a removed flag cannot stay in the README.
"""

import argparse
import re
import shlex
from pathlib import Path

from spdrose.cli import build_parser

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


def test_readme_commands_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("spdrose ")]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: spdrose {shlex.join(argv)}")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted({argv[0] for argv in commands}) == sorted(subparsers.choices)
