"""Every random stream in ``spdrose`` is seeded explicitly, so runs replay.

A call to ``default_rng``, ``SeedSequence``, ``Philox`` or ``Generator``
without a seed, entropy, key or bit generator would draw OS entropy, and
a run could not be replayed from its seed.  Only ``seeding`` builds a
``Philox``; every other module takes its streams from there.
"""

import ast
from pathlib import Path

import spdrose

SRC = Path(spdrose.__file__).resolve().parent
RANDOM_CONSTRUCTORS = ("default_rng", "SeedSequence", "Philox", "Generator")
SEED_KEYWORDS = ("seed", "entropy", "key", "bit_generator")


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _unseeded_or_misplaced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in RANDOM_CONSTRUCTORS:
            continue
        seeded = any(not _is_none(arg) for arg in node.args) or any(
            kw.arg in SEED_KEYWORDS and not _is_none(kw.value) for kw in node.keywords
        )
        if not seeded:
            yield f"{path.name}:{node.lineno}: unseeded {name}"
        if name == "Philox" and path.name != "seeding.py":
            yield f"{path.name}:{node.lineno}: Philox outside seeding"


def test_random_streams_are_seeded_and_philox_is_built_in_seeding():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [line for path in modules for line in _unseeded_or_misplaced(path)] == []


def test_the_guard_sees_each_kind_of_call(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "np.random.default_rng()\nnp.random.default_rng(None)\n"
        "np.random.SeedSequence(spawn_key=(1,))\nGenerator(bit_generator=None)\n"
        "np.random.Philox(key=3)\nnp.random.default_rng(seed)\n"
        "np.random.SeedSequence(entropy=5)\nnp.random.Generator(bits)\n"
        "rng.standard_normal()\n",
        encoding="ascii",
    )
    flagged = [line.split(":", 1)[1] for line in _unseeded_or_misplaced(sample)]
    assert flagged == [
        "1: unseeded default_rng",
        "2: unseeded default_rng",
        "3: unseeded SeedSequence",
        "4: unseeded Generator",
        "5: Philox outside seeding",
    ]
