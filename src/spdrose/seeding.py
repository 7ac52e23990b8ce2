"""Deterministic seed derivation for nested pipeline stages.

Counter-based generators (Philox) keyed by explicit integers make every
random draw in the package replayable: the same master seed always
produces the same splits, hyperplanes and synthetic points, independent
of evaluation order.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1


def derive_seed(master: int, *path: int) -> int:
    """Stable 64-bit sub-seed for a master seed and an index path."""
    ss = np.random.SeedSequence(
        entropy=int(master) & MASK64,
        spawn_key=tuple(int(p) & MASK64 for p in path),
    )
    return int(ss.generate_state(1, np.uint64)[0])


def keyed_generator(*key: int) -> np.random.Generator:
    """Philox generator keyed directly by up to two 64-bit integers."""
    words = [int(k) & MASK64 for k in key]
    if len(words) == 1:
        return np.random.Generator(np.random.Philox(key=words[0]))
    if len(words) == 2:
        return np.random.Generator(np.random.Philox(key=np.array(words, dtype=np.uint64)))
    raise ValueError("keyed_generator takes one or two key words")
