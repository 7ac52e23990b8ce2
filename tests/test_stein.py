"""Unit tests for the Stein divergence, kernel, and Gram assembly."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spdrose.stein
from spdrose import (
    DimensionMismatch,
    DivergenceTable,
    EmptyInput,
    GramMatrix,
    IndefiniteKernel,
    KernelParams,
    SpdMatrix,
    divergence_matrix,
    gram_matrix,
    gram_power,
    sigma_guarantees_psd,
    stein_divergence,
    stein_kernel_value,
    symmetrize,
)
from spdrose.stein import GRAM_PSD_RTOL

from conftest import random_orthogonal, random_spd

# Eight 2x2 points whose kernel Gram at sigma=0.25 has smallest
# eigenvalue about -0.0445.  Found by direct minimisation of the
# smallest eigenvalue; sigma=0.25 sits below the half-integer grid,
# where positive semidefiniteness is not guaranteed.
INDEFINITE_POINTS = [
    SpdMatrix(np.array(m))
    for m in [
        [[0.10987, 0.024258], [0.024258, 0.100197]],
        [[2.913421, 5.378548], [5.378548, 10.266605]],
        [[7.913375, 0.462405], [0.462405, 0.112408]],
        [[1.191419, 0.25326], [0.25326, 1.146758]],
        [[0.185745, -0.779763], [-0.779763, 6.558525]],
        [[6.240924, 4.387079], [4.387079, 3.149058]],
        [[3.762996, -2.847616], [-2.847616, 2.410235]],
        [[6.274226, 0.675056], [0.675056, 6.728837]],
    ]
]


def test_divergence_of_identical_points_is_zero(rng):
    for _ in range(10):
        x = random_spd(rng, 4)
        j = stein_divergence(x, x)
        assert 0.0 <= j <= 1e-10


def test_divergence_known_value():
    x = SpdMatrix(np.eye(2))
    y = SpdMatrix(2.0 * np.eye(2))
    expected = 2.0 * math.log(1.5) - math.log(2.0)
    assert stein_divergence(x, y) == pytest.approx(expected, abs=1e-12)


def test_divergence_exactly_symmetric(rng):
    for _ in range(20):
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        assert stein_divergence(x, y) == stein_divergence(y, x)


def test_divergence_nonnegative(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        assert stein_divergence(random_spd(rng, dim), random_spd(rng, dim)) >= 0.0


def test_divergence_congruence_invariant(rng):
    for _ in range(15):
        x = random_spd(rng, 3)
        y = random_spd(rng, 3)
        a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        xa = SpdMatrix(symmetrize(a @ x.array @ a.T))
        ya = SpdMatrix(symmetrize(a @ y.array @ a.T))
        assert stein_divergence(xa, ya) == pytest.approx(
            stein_divergence(x, y), rel=1e-8, abs=1e-10
        )


def test_divergence_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        stein_divergence(random_spd(rng, 2), random_spd(rng, 3))


def test_kernel_value_range_and_formula(rng):
    params = KernelParams(sigma=1.5)
    for _ in range(20):
        x = random_spd(rng, 4)
        y = random_spd(rng, 4)
        k = stein_kernel_value(x, y, params)
        assert 0.0 < k <= 1.0
        assert k == pytest.approx(
            math.exp(-1.5 * stein_divergence(x, y)), rel=1e-14
        )
    assert stein_kernel_value(x, x, params) == pytest.approx(1.0, abs=1e-10)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(sigma=0.0)
    with pytest.raises(ValueError):
        KernelParams(sigma=-1.0)
    # An infinite width would put inf * 0 = NaN on the Gram diagonal.
    for sigma in (math.inf, math.nan):
        with pytest.raises(ValueError):
            KernelParams(sigma=sigma)
    with pytest.raises(ValueError):
        KernelParams(sigma=0.5, psd_policy="ignore")


def test_sigma_grid():
    assert [s for s in (0.5, 1.0, 1.5, 2.0) if sigma_guarantees_psd(s, 5)] == [
        0.5,
        1.0,
        1.5,
        2.0,
    ]
    assert not sigma_guarantees_psd(2.5, 5)
    assert not sigma_guarantees_psd(0.75, 5)
    assert sigma_guarantees_psd(0.5, 2)
    assert not sigma_guarantees_psd(1.0, 2)
    assert not sigma_guarantees_psd(0.25, 8)


def test_gram_unit_diagonal_and_exact_symmetry(rng):
    points = [random_spd(rng, 3) for _ in range(12)]
    gram = gram_matrix(points, KernelParams(sigma=1.0))
    assert np.array_equal(np.diag(gram.entries), np.ones(12))
    assert np.array_equal(gram.entries, gram.entries.T)
    assert gram.size == 12
    assert gram.clamped_mass == 0.0


def test_gram_entries_match_pairwise_kernel(rng):
    params = KernelParams(sigma=0.5)
    points = [random_spd(rng, 4) for _ in range(6)]
    gram = gram_matrix(points, params)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert gram.entries[i, j] == stein_kernel_value(
                    points[i], points[j], params
                )


def test_gram_psd_on_guaranteed_grid(rng):
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(3, 20))
        points = [random_spd(rng, dim) for _ in range(count)]
        half_steps = int(rng.integers(1, dim))
        gram = gram_matrix(points, KernelParams(sigma=half_steps / 2.0))
        vals = np.linalg.eigvalsh(gram.entries)
        assert vals[0] >= -GRAM_PSD_RTOL * vals[-1]
        assert gram.clamped_mass == 0.0


def test_gram_rejects_empty_and_mixed_dims(rng):
    with pytest.raises(EmptyInput):
        gram_matrix([], KernelParams(sigma=0.5))
    with pytest.raises(DimensionMismatch):
        gram_matrix([random_spd(rng, 2), random_spd(rng, 3)], KernelParams(sigma=0.5))


def test_indefinite_witness_is_indefinite():
    # Guard against the witness silently going stale: assemble the raw
    # Gram and confirm the negative eigenvalue is really there.
    params = KernelParams(sigma=0.25)
    n = len(INDEFINITE_POINTS)
    raw = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            raw[i, j] = raw[j, i] = stein_kernel_value(
                INDEFINITE_POINTS[i], INDEFINITE_POINTS[j], params
            )
    assert np.linalg.eigvalsh(raw)[0] < -0.01


def test_gram_clamp_repairs_indefinite():
    gram = gram_matrix(INDEFINITE_POINTS, KernelParams(sigma=0.25, psd_policy="clamp"))
    vals = np.linalg.eigvalsh(gram.entries)
    assert vals[0] >= -1e-12 * vals[-1]
    assert gram.clamped_mass > 0.01
    assert np.array_equal(gram.entries, gram.entries.T)


def test_gram_strict_raises_on_indefinite():
    with pytest.raises(IndefiniteKernel) as info:
        gram_matrix(INDEFINITE_POINTS, KernelParams(sigma=0.25, psd_policy="strict"))
    assert info.value.smallest_eigenvalue < -0.01
    assert info.value.sigma == 0.25


def test_gram_entries_read_only(rng):
    gram = gram_matrix([random_spd(rng, 2) for _ in range(3)], KernelParams(0.5))
    with pytest.raises(ValueError):
        gram.entries[0, 0] = 2.0


def test_gram_power_halves_compose(rng):
    points = [random_spd(rng, 3) for _ in range(8)]
    gram = gram_matrix(points, KernelParams(sigma=1.0))
    root = gram_power(gram, 0.5)
    assert np.allclose(root @ root, gram.entries, rtol=1e-9, atol=1e-11)
    inv_root = gram_power(gram, -0.5)
    assert np.allclose(
        inv_root @ gram.entries @ inv_root, np.eye(8), rtol=1e-7, atol=1e-8
    )


def test_gram_power_pseudo_inverse_on_singular(rng):
    # A duplicated point makes the Gram exactly singular; the -1/2
    # branch must produce a projector, not blow up.
    base = [random_spd(rng, 3) for _ in range(5)]
    points = base + [base[0]]
    gram = gram_matrix(points, KernelParams(sigma=1.0))
    root = gram_power(gram, 0.5)
    inv_root = gram_power(gram, -0.5)
    projector = inv_root @ root
    assert np.all(np.isfinite(inv_root))
    assert np.allclose(projector @ projector, projector, atol=1e-8)
    assert np.linalg.matrix_rank(projector, tol=1e-8) == 5


def test_gram_power_rejects_other_exponents(rng):
    gram = gram_matrix([random_spd(rng, 2) for _ in range(3)], KernelParams(0.5))
    with pytest.raises(ValueError):
        gram_power(gram, 1.0)


def test_gram_matrix_wrapper_accepts_prebuilt_entries():
    g = GramMatrix(np.eye(3))
    assert g.size == 3
    assert g.clamped_mass == 0.0


def pair_loop(rows, cols):
    return np.array([[stein_divergence(x, y) for y in cols] for x in rows])


@pytest.mark.parametrize("dim", [2, 6, 43])
def test_divergence_matrix_equals_pair_loop(rng, dim):
    points = [random_spd(rng, dim) for _ in range(6)]
    others = [random_spd(rng, dim) for _ in range(4)]
    assert np.array_equal(divergence_matrix(points, points), pair_loop(points, points))
    assert np.array_equal(divergence_matrix(points, others), pair_loop(points, others))
    table = DivergenceTable(points + others, rows=len(points))
    for _ in range(2):  # the second pass reads what the first one kept
        assert np.array_equal(
            divergence_matrix(points, points, table), pair_loop(points, points)
        )
        assert np.array_equal(
            divergence_matrix(others, points, table), pair_loop(others, points)
        )


def test_divergence_table_computes_each_kept_pair_once(rng, monkeypatch):
    calls = Counter()
    original = spdrose.stein.stein_divergence

    def counting(x, y):
        calls[frozenset((id(x), id(y)))] += 1
        return original(x, y)

    monkeypatch.setattr(spdrose.stein, "stein_divergence", counting)
    train = [random_spd(rng, 3) for _ in range(5)]
    test = [random_spd(rng, 3) for _ in range(4)]
    synthetic = [random_spd(rng, 3) for _ in range(3)]
    table = DivergenceTable(train + test, rows=len(train))
    run = table.extended(synthetic)
    pool = train + synthetic
    for _ in range(2):
        divergence_matrix(pool, pool, run)
        divergence_matrix(train + test, pool, run)
        divergence_matrix(test, train, table)
    assert max(calls.values()) == 1
    # train pairs, train x test, synthetic pairs, synthetic x real
    assert len(calls) == 10 + 20 + 3 + 3 * 9
    # Pairs of two points past the kept rows are never stored.
    divergence_matrix(test[:2], test[2:], table)
    divergence_matrix(test[:2], test[2:], table)
    assert max(calls.values()) == 2


_SEEDS = st.integers(0, 2**32 - 1)
_DIMS = st.integers(2, 8)


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_exactly_symmetric(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = random_spd(rng, dim), random_spd(rng, dim)
    assert stein_divergence(x, y) == stein_divergence(y, x)


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_of_a_point_with_itself_is_zero(seed, dim):
    x = random_spd(np.random.default_rng(seed), dim)
    assert stein_divergence(x, x) == 0.0


@settings(max_examples=40)
@given(seed=_SEEDS, dim=_DIMS)
def test_property_divergence_congruence_invariant(seed, dim):
    rng = np.random.default_rng(seed)
    x, y = random_spd(rng, dim), random_spd(rng, dim)
    # Condition number at most e^2, so the congruence loses little precision.
    a = random_orthogonal(rng, dim) * np.exp(rng.uniform(-1.0, 1.0, size=dim))
    xa = SpdMatrix(symmetrize(a @ x.array @ a.T))
    ya = SpdMatrix(symmetrize(a @ y.array @ a.T))
    assert stein_divergence(xa, ya) == pytest.approx(
        stein_divergence(x, y), rel=1e-8, abs=1e-10
    )


# Points at least this AIRM distance apart have J bounded away from zero.
_MIN_DISTANCE = 0.5


@settings(max_examples=40)
@given(
    seed=_SEEDS,
    dim=_DIMS,
    distance=st.floats(_MIN_DISTANCE, 4.0),
)
def test_property_divergence_positive_off_the_diagonal(seed, dim, distance):
    rng = np.random.default_rng(seed)
    x = random_spd(rng, dim)
    # y = x^1/2 exp(S) x^1/2 lies at AIRM distance ||S||_F = distance from x,
    # and J(x, y) = sum_i log cosh(s_i / 2) over the eigenvalues s_i of S.
    s = rng.standard_normal(dim)
    s *= distance / np.linalg.norm(s)
    q = random_orthogonal(rng, dim)
    y = SpdMatrix(symmetrize(x.sqrt_array @ (q * np.exp(s)) @ q.T @ x.sqrt_array))
    # The largest |s_i| is at least distance / sqrt(dim).
    floor = math.log(math.cosh(distance / (2.0 * math.sqrt(dim))))
    assert stein_divergence(x, y) >= 0.5 * floor > 0.0


@settings(max_examples=40)
@given(
    seed=_SEEDS,
    dim=_DIMS,
    sigma=st.floats(0.01, 10.0),
    log_spread=st.floats(0.1, 3.0),
)
def test_property_kernel_value_in_unit_interval(seed, dim, sigma, log_spread):
    # Each term of J is at most |log lambda_i(x^-1 y)| / 2 <= log_spread, so
    # sigma * J <= 10 * 8 * 3 = 240, far from where exp(-sigma * J)
    # underflows to zero (about 745).
    rng = np.random.default_rng(seed)
    x = random_spd(rng, dim, log_spread)
    y = random_spd(rng, dim, log_spread)
    k = stein_kernel_value(x, y, KernelParams(sigma))
    assert 0.0 < k <= 1.0
