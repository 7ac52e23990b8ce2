"""Keyed Philox streams: the draws of ``Generator(Philox(key=...))``, no OS entropy."""

import numpy as np
import pytest

from spdrose import SynthesisConfig, generate_synthetic, keyed_generator
from spdrose.seeding import MASK64, rekey

from conftest import random_spd

KEYS = [
    (0,),
    (7,),
    (2**63 + 7,),
    (MASK64,),
    (0, 0),
    (0, 2**63 + 7),
    (2**63 + 7, 0),
    (MASK64, MASK64),
    (3, 11),
]


def reference(*key):
    words = [k & MASK64 for k in key]
    key = words[0] if len(words) == 1 else np.array(words, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(rng):
    """One of each draw the package makes, in an order that leaves buffered words."""
    return [
        rng.standard_normal((3, 3)),
        rng.choice(50, size=13, replace=False),
        rng.uniform(),
        rng.uniform(size=5),
        rng.integers(7),
        rng.integers(2**31, size=3, dtype=np.int32),
        rng.integers(2**40, size=4),
        rng.standard_normal(5),
    ]


def assert_same_draws(rng, expected):
    for got, want in zip(draws(rng), draws(expected), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_keyed_generator_draws_what_a_keyed_philox_draws(key):
    assert_same_draws(keyed_generator(*key), reference(*key))


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_a_rekeyed_generator_restarts_the_keyed_stream(key):
    rng = keyed_generator(5, 9)
    draws(rng)  # a part-used buffer and a held 32-bit word
    assert rekey(rng, *key) is rng
    assert_same_draws(rng, reference(*key))


def test_keys_are_taken_modulo_two_to_the_64():
    assert_same_draws(keyed_generator(-1), reference(MASK64))
    assert_same_draws(keyed_generator(2**64 + 3, -2), reference(3, MASK64 - 1))


@pytest.mark.parametrize("key", [(), (1, 2, 3)])
def test_keyed_generator_takes_one_or_two_words(key):
    with pytest.raises(ValueError, match="one or two key words"):
        keyed_generator(*key)


def test_keyed_streams_draw_no_os_entropy(monkeypatch):
    bit_generator = np.random.bit_generator
    if not hasattr(bit_generator, "randbits"):
        pytest.skip("numpy draws seed entropy through another name")
    calls = []
    real = bit_generator.randbits

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bit_generator, "randbits", spy)
    np.random.SeedSequence()
    assert len(calls) == 1, "the spy must see an unseeded SeedSequence"
    calls.clear()
    rekey(keyed_generator(1), 2, 3).standard_normal(4)
    keyed_generator(2**63 + 7, MASK64).uniform()
    rng = np.random.default_rng(0)
    training = [random_spd(rng, 3) for _ in range(4)]
    generate_synthetic(training, SynthesisConfig(count=5, seed=2))
    assert calls == []
