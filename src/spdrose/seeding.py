"""Deterministic seed derivation for nested pipeline stages.

Counter-based generators (Philox) keyed by explicit integers make every
random draw in the package replayable: the same master seed always
produces the same splits, hyperplanes and synthetic points, independent
of evaluation order.  A keyed generator draws no OS entropy: its Philox
starts from a seed sequence of zero words and is then keyed through its
state, and a loop that draws one stream per item re-keys a single
generator with :func:`rekey` instead of building one per item.
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


class _ZeroWords(np.random.bit_generator.ISeedSequence):
    """Seeds a Philox that is keyed before its first draw; an unseeded
    Philox would fill a ``SeedSequence`` from OS entropy first."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def rekey(generator: np.random.Generator, *key: int) -> np.random.Generator:
    """Restart a Philox ``generator`` at the stream ``keyed_generator(*key)`` starts.

    Sets the key, a zero counter and an empty output buffer, so the draws
    that follow are those of ``Generator(Philox(key=...))``.
    """
    words = [int(k) & MASK64 for k in key]
    if len(words) not in (1, 2):
        raise ValueError("keyed_generator takes one or two key words")
    # Plain lists: the state setter reads them faster than uint64 arrays.
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": words + [0] * (2 - len(words))},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator


def keyed_generator(*key: int) -> np.random.Generator:
    """Philox generator keyed directly by up to two 64-bit integers."""
    return rekey(np.random.Generator(np.random.Philox(_ZeroWords())), *key)
